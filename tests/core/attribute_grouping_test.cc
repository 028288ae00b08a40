#include "core/attribute_grouping.h"

#include <gtest/gtest.h>

#include "core/value_clustering.h"
#include "testing/make_relation.h"

namespace limbo::core {
namespace {

using limbo::testing::MakeRelation;
using limbo::testing::PaperFigure4;

AttributeGroupingResult GroupFigure4() {
  const auto rel = PaperFigure4();
  auto values = ClusterValues(rel, {});
  EXPECT_TRUE(values.ok());
  auto grouping = GroupAttributes(rel, *values);
  EXPECT_TRUE(grouping.ok());
  return std::move(grouping).value();
}

TEST(AttributeGroupingTest, PaperDendrogramShape) {
  // Figure 10: B and C merge first, then A joins.
  const auto rel = PaperFigure4();
  const auto grouping = GroupFigure4();
  ASSERT_EQ(grouping.attributes.size(), 3u);
  ASSERT_EQ(grouping.aib.merges().size(), 2u);
  const Merge& first = grouping.aib.merges()[0];
  EXPECT_EQ(grouping.cluster_members[first.merged],
            fd::AttributeSet::FromList({1, 2}));  // {B, C}
  const Merge& second = grouping.aib.merges()[1];
  EXPECT_EQ(grouping.cluster_members[second.merged],
            fd::AttributeSet::FromList({0, 1, 2}));
}

TEST(AttributeGroupingTest, PaperInformationLossValues) {
  // Hand-computed from the normalized F matrix (matches the paper's
  // "maximum information loss ... approximately 0.52"):
  //   δI(B, C) = (2/3)·JS((0.4,0.6),(0,1)) ≈ 0.15766
  //   δI(A, BC) ≈ 0.51554
  const auto grouping = GroupFigure4();
  EXPECT_NEAR(grouping.aib.merges()[0].delta_i, 0.15766, 1e-4);
  EXPECT_NEAR(grouping.aib.merges()[1].delta_i, 0.51554, 1e-4);
  EXPECT_NEAR(grouping.max_merge_loss, 0.51554, 1e-4);
}

TEST(AttributeGroupingTest, DendrogramTextListsMerges) {
  const auto rel = PaperFigure4();
  const auto grouping = GroupFigure4();
  const std::string text = grouping.DendrogramText(rel.schema());
  EXPECT_NE(text.find("[B,C]"), std::string::npos);
  EXPECT_NE(text.find("[A,B,C]"), std::string::npos);
  EXPECT_NE(text.find("loss="), std::string::npos);
}

TEST(AttributeGroupingTest, FailsWithoutDuplicateGroups) {
  const auto rel = MakeRelation({"A", "B"}, {{"1", "x"}, {"2", "y"}});
  auto values = ClusterValues(rel, {});
  ASSERT_TRUE(values.ok());
  ASSERT_TRUE(values->duplicate_groups.empty());
  EXPECT_FALSE(GroupAttributes(rel, *values).ok());
}

TEST(AttributeGroupingTest, AttributesOutsideAdAreExcluded) {
  // D's values are all unique: it carries no duplicate group, so it is
  // not part of A_D.
  const auto rel = MakeRelation({"A", "B", "D"}, {{"a", "1", "d1"},
                                                  {"a", "1", "d2"},
                                                  {"w", "2", "d3"},
                                                  {"y", "2", "d4"}});
  auto values = ClusterValues(rel, {});
  ASSERT_TRUE(values.ok());
  auto grouping = GroupAttributes(rel, *values);
  ASSERT_TRUE(grouping.ok());
  for (relation::AttributeId a : grouping->attributes) {
    EXPECT_NE(rel.schema().Name(a), "D");
  }
}

}  // namespace
}  // namespace limbo::core
