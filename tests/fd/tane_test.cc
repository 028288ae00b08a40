#include "fd/tane.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "testing/make_relation.h"

namespace limbo::fd {
namespace {

using limbo::testing::MakeRelation;
using limbo::testing::PaperFigure4;

FunctionalDependency Fd(std::vector<relation::AttributeId> lhs,
                        std::vector<relation::AttributeId> rhs) {
  return {AttributeSet::FromList(lhs), AttributeSet::FromList(rhs)};
}

bool Contains(const std::vector<FunctionalDependency>& fds,
              const FunctionalDependency& f) {
  return std::find(fds.begin(), fds.end(), f) != fds.end();
}

TEST(TaneTest, PaperFigure4Dependencies) {
  const auto rel = PaperFigure4();
  auto fds = Tane::Mine(rel);
  ASSERT_TRUE(fds.ok());
  EXPECT_TRUE(Contains(*fds, Fd({0}, {1})));  // A -> B
  EXPECT_TRUE(Contains(*fds, Fd({2}, {1})));  // C -> B
  EXPECT_FALSE(Contains(*fds, Fd({1}, {0})));
}

TEST(TaneTest, AllMinedHoldAndAreMinimal) {
  const auto rel = MakeRelation({"A", "B", "C", "D"},
                                {{"1", "x", "p", "u"},
                                 {"1", "x", "q", "u"},
                                 {"2", "x", "p", "v"},
                                 {"2", "y", "q", "v"},
                                 {"3", "y", "q", "u"},
                                 {"3", "y", "p", "w"}});
  auto fds = Tane::Mine(rel);
  ASSERT_TRUE(fds.ok());
  EXPECT_FALSE(fds->empty());
  for (const auto& f : *fds) {
    EXPECT_TRUE(Holds(rel, f)) << f.ToString(rel.schema());
    for (relation::AttributeId a : f.lhs.ToList()) {
      EXPECT_FALSE(Holds(rel, {f.lhs.Without(a), f.rhs}))
          << "not minimal: " << f.ToString(rel.schema());
    }
  }
}

TEST(TaneTest, ConstantAttribute) {
  const auto rel = MakeRelation({"A", "B"}, {{"c", "1"}, {"c", "2"}});
  auto fds = Tane::Mine(rel);
  ASSERT_TRUE(fds.ok());
  EXPECT_TRUE(Contains(*fds, {AttributeSet(), AttributeSet::Single(0)}));
}

TEST(TaneTest, ConstantAttributeMinLhsOne) {
  const auto rel = MakeRelation({"A", "B"}, {{"c", "1"}, {"c", "2"}});
  TaneOptions options;
  options.min_lhs = 1;
  auto fds = Tane::Mine(rel, options);
  ASSERT_TRUE(fds.ok());
  EXPECT_FALSE(Contains(*fds, {AttributeSet(), AttributeSet::Single(0)}));
  EXPECT_TRUE(Contains(*fds, Fd({1}, {0})));
}

TEST(TaneTest, CompositeKeyNeedsLevelTwo) {
  // (A,B) is the key; neither A nor B alone determines C.
  const auto rel = MakeRelation({"A", "B", "C"},
                                {{"1", "x", "p"},
                                 {"1", "y", "q"},
                                 {"2", "x", "r"},
                                 {"2", "y", "s"}});
  auto fds = Tane::Mine(rel);
  ASSERT_TRUE(fds.ok());
  EXPECT_TRUE(Contains(*fds, Fd({0, 1}, {2})));
  EXPECT_FALSE(Contains(*fds, Fd({0}, {2})));
  EXPECT_FALSE(Contains(*fds, Fd({1}, {2})));
}

TEST(TaneTest, EmptyRelation) {
  auto schema = relation::Schema::Create({"A"});
  ASSERT_TRUE(schema.ok());
  relation::RelationBuilder builder(std::move(schema).value());
  const relation::Relation rel = std::move(builder).Build();
  auto fds = Tane::Mine(rel);
  ASSERT_TRUE(fds.ok());
  EXPECT_TRUE(fds->empty());
}

TEST(TaneTest, WideKeyPruningStillFindsKeyFds) {
  // K unique: K -> everything, found via superkey pruning at level 1.
  const auto rel = MakeRelation(
      {"K", "X", "Y", "Z"},
      {{"1", "a", "p", "s"}, {"2", "a", "q", "s"}, {"3", "b", "q", "t"}});
  auto fds = Tane::Mine(rel);
  ASSERT_TRUE(fds.ok());
  EXPECT_TRUE(Contains(*fds, Fd({0}, {1})));
  EXPECT_TRUE(Contains(*fds, Fd({0}, {2})));
  EXPECT_TRUE(Contains(*fds, Fd({0}, {3})));
}

}  // namespace
}  // namespace limbo::fd
