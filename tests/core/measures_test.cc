#include "core/measures.h"

#include <gtest/gtest.h>

#include <cmath>

#include "datagen/dblp.h"
#include "fd/fd.h"
#include "testing/make_relation.h"

namespace limbo::core {
namespace {

using limbo::testing::MakeRelation;
using limbo::testing::PaperFigure4;

TEST(RadTest, AllIdenticalIsOne) {
  const auto rel = MakeRelation({"A"}, {{"x"}, {"x"}, {"x"}});
  EXPECT_DOUBLE_EQ(Rad(rel, {0}), 1.0);
}

TEST(RadTest, AllDistinctIsZero) {
  const auto rel = MakeRelation({"A"}, {{"1"}, {"2"}, {"3"}, {"4"}});
  EXPECT_NEAR(Rad(rel, {0}), 0.0, 1e-12);
}

TEST(RadTest, PaperExampleBC) {
  // Projection of Figure 4 on (B,C): counts {1,1,3} over n=5.
  // H = -(0.2 lg 0.2)*2 - 0.6 lg 0.6; RAD = 1 - H/lg 5.
  const auto rel = PaperFigure4();
  const double h = -(2 * 0.2 * std::log2(0.2)) - 0.6 * std::log2(0.6);
  EXPECT_NEAR(Rad(rel, {1, 2}), 1.0 - h / std::log2(5.0), 1e-12);
}

TEST(RadTest, DecompositionOnCtoBBeatsAtoB) {
  // The paper's Section 7 claim: (B,C) has more redundancy than (A,B).
  const auto rel = PaperFigure4();
  EXPECT_GT(Rad(rel, {1, 2}), Rad(rel, {0, 1}));
}

TEST(RadTest, DegenerateSizes) {
  const auto one = MakeRelation({"A"}, {{"x"}});
  EXPECT_DOUBLE_EQ(Rad(one, {0}), 1.0);
}

TEST(RtrTest, PaperExampleValues) {
  const auto rel = PaperFigure4();
  // π_{B,C}: 3 distinct of 5 -> RTR = 0.4; π_{A,B}: 4 distinct -> 0.2.
  EXPECT_DOUBLE_EQ(Rtr(rel, {1, 2}), 0.4);
  EXPECT_DOUBLE_EQ(Rtr(rel, {0, 1}), 0.2);
}

TEST(RtrTest, NoDuplicationIsZero) {
  const auto rel = MakeRelation({"A", "B"}, {{"1", "x"}, {"2", "y"}});
  EXPECT_DOUBLE_EQ(Rtr(rel, {0, 1}), 0.0);
}

TEST(RtrTest, FullDuplication) {
  const auto rel = MakeRelation({"A"}, {{"x"}, {"x"}, {"x"}, {"x"}});
  EXPECT_DOUBLE_EQ(Rtr(rel, {0}), 0.75);
}

TEST(MeasuresTest, RadIsWidthSensitiveRtrSizeSensitive) {
  // The paper's motivating distinction: two single-attribute relations,
  // one with 3 copies of a value, one with 2 copies. RAD says 1.0 for
  // both; RTR distinguishes them.
  const auto three = MakeRelation({"A"}, {{"x"}, {"x"}, {"x"}});
  const auto two = MakeRelation({"A"}, {{"x"}, {"x"}});
  EXPECT_DOUBLE_EQ(Rad(three, {0}), 1.0);
  EXPECT_DOUBLE_EQ(Rad(two, {0}), 1.0);
  EXPECT_GT(Rtr(three, {0}), Rtr(two, {0}));
}

TEST(RadTest, EqualPartitionsGiveBitEqualRad) {
  // On 2,000 DBLP tuples Pages determines both BookTitle and Series, so
  // {Pages, BookTitle} and {Pages, Series} split the tuples into the same
  // groups. RAD is a function of that partition alone and must agree to
  // the last bit, whatever the value ids of the two right-hand sides.
  datagen::DblpOptions options;
  options.target_tuples = 2000;
  const relation::Relation rel = datagen::GenerateDblp(options);
  const auto pages = rel.schema().Find("Pages");
  const auto booktitle = rel.schema().Find("BookTitle");
  const auto series = rel.schema().Find("Series");
  ASSERT_TRUE(pages.ok() && booktitle.ok() && series.ok());
  const fd::AttributeSet lhs = fd::AttributeSet::Single(*pages);
  ASSERT_TRUE(fd::Holds(rel, {lhs, fd::AttributeSet::Single(*booktitle)}));
  ASSERT_TRUE(fd::Holds(rel, {lhs, fd::AttributeSet::Single(*series)}));
  EXPECT_EQ(Rad(rel, {*pages, *booktitle}), Rad(rel, {*pages, *series}));
}

}  // namespace
}  // namespace limbo::core
