#include "fd/fd.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "testing/make_relation.h"

namespace limbo::fd {
namespace {

using limbo::testing::MakeRelation;
using limbo::testing::PaperFigure4;
using limbo::testing::PaperFigure5;
using limbo::testing::RandomRelation;

std::vector<relation::ValueId> Values(const relation::Relation& rel,
                                      relation::TupleId t, AttributeSet x) {
  std::vector<relation::ValueId> values;
  for (relation::AttributeId a : x.ToList()) values.push_back(rel.At(t, a));
  return values;
}

/// X → Y by definition: every pair of tuples that agrees on X agrees on Y.
bool BruteHolds(const relation::Relation& rel, const FunctionalDependency& f) {
  for (relation::TupleId s = 0; s < rel.NumTuples(); ++s) {
    for (relation::TupleId t = s + 1; t < rel.NumTuples(); ++t) {
      if (Values(rel, s, f.lhs) == Values(rel, t, f.lhs) &&
          Values(rel, s, f.rhs) != Values(rel, t, f.rhs)) {
        return false;
      }
    }
  }
  return true;
}

/// g3 by definition: each X-value keeps its most frequent Y-value, and
/// every other tuple must go.
double BruteG3(const relation::Relation& rel, const FunctionalDependency& f) {
  const size_t n = rel.NumTuples();
  if (n == 0) return 0.0;
  std::map<std::vector<relation::ValueId>,
           std::map<std::vector<relation::ValueId>, size_t>>
      counts;
  for (relation::TupleId t = 0; t < n; ++t) {
    ++counts[Values(rel, t, f.lhs)][Values(rel, t, f.rhs)];
  }
  size_t kept = 0;
  for (const auto& [x, ys] : counts) {
    size_t best = 0;
    for (const auto& [y, count] : ys) best = std::max(best, count);
    kept += best;
  }
  return static_cast<double>(n - kept) / static_cast<double>(n);
}

FunctionalDependency Fd(std::vector<relation::AttributeId> lhs,
                        std::vector<relation::AttributeId> rhs) {
  return {AttributeSet::FromList(lhs), AttributeSet::FromList(rhs)};
}

TEST(HoldsTest, PaperExampleCToB) {
  // In Figure 4, C → B holds (p,r → 1; x → 2) and A → B holds too.
  const auto rel = PaperFigure4();
  EXPECT_TRUE(Holds(rel, Fd({2}, {1})));  // C -> B
  EXPECT_TRUE(Holds(rel, Fd({0}, {1})));  // A -> B
  EXPECT_FALSE(Holds(rel, Fd({1}, {0})));  // B -> A fails (2 -> w,y,z)
}

TEST(HoldsTest, PaperFigure5BreaksCToB) {
  // Value x now appears with B=1 and B=2.
  const auto rel = PaperFigure5();
  EXPECT_FALSE(Holds(rel, Fd({2}, {1})));
}

TEST(HoldsTest, CompositeLhs) {
  const auto rel = MakeRelation(
      {"A", "B", "C"},
      {{"1", "x", "p"}, {"1", "y", "q"}, {"2", "x", "r"}, {"1", "x", "p"}});
  EXPECT_FALSE(Holds(rel, Fd({0}, {2})));
  EXPECT_FALSE(Holds(rel, Fd({1}, {2})));
  EXPECT_TRUE(Holds(rel, Fd({0, 1}, {2})));
}

TEST(HoldsTest, EmptyLhsMeansConstant) {
  const auto rel = MakeRelation({"A", "B"}, {{"c", "1"}, {"c", "2"}});
  EXPECT_TRUE(Holds(rel, Fd({}, {0})));
  EXPECT_FALSE(Holds(rel, Fd({}, {1})));
}

TEST(HoldsTest, EmptyRhsTriviallyHolds) {
  const auto rel = MakeRelation({"A"}, {{"1"}, {"2"}});
  EXPECT_TRUE(Holds(rel, {AttributeSet::Single(0), AttributeSet()}));
}

TEST(HoldsTest, MultiAttributeRhs) {
  const auto rel = MakeRelation(
      {"K", "X", "Y"}, {{"1", "a", "b"}, {"1", "a", "b"}, {"2", "c", "d"}});
  EXPECT_TRUE(Holds(rel, Fd({0}, {1, 2})));
}

TEST(G3ErrorTest, ZeroIffHolds) {
  const auto rel = PaperFigure4();
  EXPECT_DOUBLE_EQ(G3Error(rel, Fd({2}, {1})), 0.0);
}

TEST(G3ErrorTest, SingleViolatingTuple) {
  // Figure 5: removing the second tuple (C=x, B=1) restores C → B.
  const auto rel = PaperFigure5();
  EXPECT_DOUBLE_EQ(G3Error(rel, Fd({2}, {1})), 1.0 / 5.0);
}

TEST(G3ErrorTest, WorstCase) {
  // B alternates under constant A: half the tuples must go (n=4: keep 2).
  const auto rel =
      MakeRelation({"A", "B"}, {{"c", "1"}, {"c", "2"}, {"c", "1"}, {"c", "2"}});
  EXPECT_DOUBLE_EQ(G3Error(rel, Fd({0}, {1})), 0.5);
}

TEST(HoldsTest, MatchesPairwiseDefinitionOnRandomRelations) {
  size_t holding = 0;
  size_t failing = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    const auto rel = RandomRelation(seed * 2, 4, 2 + seed % 2, seed);
    for (uint64_t lhs = 0; lhs < 16; ++lhs) {
      for (uint64_t rhs = 0; rhs < 16; ++rhs) {
        const FunctionalDependency f{AttributeSet(lhs), AttributeSet(rhs)};
        const bool holds = BruteHolds(rel, f);
        EXPECT_EQ(Holds(rel, f), holds)
            << "seed " << seed << " " << f.ToString(rel.schema());
        ++(holds ? holding : failing);
      }
    }
  }
  EXPECT_GT(holding, 0u);
  EXPECT_GT(failing, 0u);
}

TEST(G3ErrorTest, MatchesMinimumRemovalOnRandomRelations) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    const auto rel = RandomRelation(seed * 2 - 1, 4, 2 + seed % 2, seed);
    for (uint64_t lhs = 0; lhs < 16; ++lhs) {
      for (uint64_t rhs = 1; rhs < 16; ++rhs) {
        const FunctionalDependency f{AttributeSet(lhs), AttributeSet(rhs)};
        EXPECT_EQ(G3Error(rel, f), BruteG3(rel, f))
            << "seed " << seed << " " << f.ToString(rel.schema());
      }
    }
  }
}

TEST(FdToStringTest, RendersWithNames) {
  auto schema = relation::Schema::Create({"A", "B", "C"});
  ASSERT_TRUE(schema.ok());
  EXPECT_EQ(Fd({0, 2}, {1}).ToString(*schema), "[A,C]->[B]");
}

TEST(SortCanonicallyTest, OrdersByLhsThenRhs) {
  std::vector<FunctionalDependency> fds = {Fd({1}, {0}), Fd({0}, {2}),
                                           Fd({0}, {1})};
  SortCanonically(&fds);
  EXPECT_EQ(fds[0], Fd({0}, {1}));
  EXPECT_EQ(fds[1], Fd({0}, {2}));
  EXPECT_EQ(fds[2], Fd({1}, {0}));
}

}  // namespace
}  // namespace limbo::fd
