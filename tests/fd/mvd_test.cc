#include "fd/mvd.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "testing/make_relation.h"

namespace limbo::fd {
namespace {

using limbo::testing::MakeRelation;
using limbo::testing::RandomRelation;

bool Agree(const relation::Relation& rel, relation::TupleId s,
           relation::TupleId t, AttributeSet x) {
  for (relation::AttributeId a : x.ToList()) {
    if (rel.At(s, a) != rel.At(t, a)) return false;
  }
  return true;
}

/// X ↠ Y by the tuple-swap definition: for every t1, t2 agreeing on X
/// some t3 agrees with t1 on X ∪ Y and with t2 on Z = R − X − Y.
bool BruteHoldsMvd(const relation::Relation& rel,
                   const MultiValuedDependency& mvd) {
  const AttributeSet xy = mvd.lhs.Union(mvd.rhs);
  const AttributeSet z = AttributeSet::Full(rel.NumAttributes()).Minus(xy);
  const relation::TupleId n = static_cast<relation::TupleId>(rel.NumTuples());
  for (relation::TupleId t1 = 0; t1 < n; ++t1) {
    for (relation::TupleId t2 = 0; t2 < n; ++t2) {
      if (!Agree(rel, t1, t2, mvd.lhs)) continue;
      bool found = false;
      for (relation::TupleId t3 = 0; t3 < n && !found; ++t3) {
        found = Agree(rel, t3, t1, xy) && Agree(rel, t3, t2, z);
      }
      if (!found) return false;
    }
  }
  return true;
}

MultiValuedDependency Mvd(std::vector<relation::AttributeId> lhs,
                          std::vector<relation::AttributeId> rhs) {
  return {AttributeSet::FromList(lhs), AttributeSet::FromList(rhs)};
}

/// The textbook MVD example: each course has a set of teachers and a set
/// of books, all combinations present. Course ->> Teacher (and Book).
relation::Relation CourseTeacherBook() {
  return MakeRelation({"Course", "Teacher", "Book"},
                      {{"db", "ann", "ullman"},
                       {"db", "ann", "date"},
                       {"db", "bob", "ullman"},
                       {"db", "bob", "date"},
                       {"os", "carl", "tanenbaum"}});
}

TEST(MvdTest, TextbookExampleHolds) {
  const auto rel = CourseTeacherBook();
  EXPECT_TRUE(HoldsMvd(rel, Mvd({0}, {1})));  // Course ->> Teacher
  EXPECT_TRUE(HoldsMvd(rel, Mvd({0}, {2})));  // Course ->> Book
}

TEST(MvdTest, ViolatedWhenCombinationMissing) {
  // Remove one (teacher, book) combination: no longer a cross product.
  const auto rel = MakeRelation({"Course", "Teacher", "Book"},
                                {{"db", "ann", "ullman"},
                                 {"db", "ann", "date"},
                                 {"db", "bob", "ullman"}});
  EXPECT_FALSE(HoldsMvd(rel, Mvd({0}, {1})));
  EXPECT_FALSE(HoldsMvd(rel, Mvd({0}, {2})));
}

TEST(MvdTest, TrivialCasesAlwaysHold) {
  const auto rel = CourseTeacherBook();
  EXPECT_TRUE(HoldsMvd(rel, Mvd({0, 1}, {1})));     // Y ⊆ X
  EXPECT_TRUE(HoldsMvd(rel, Mvd({0}, {1, 2})));     // X ∪ Y = R
}

TEST(MvdTest, ComplementationRule) {
  // X ->> Y iff X ->> (R - X - Y).
  const auto rel = CourseTeacherBook();
  EXPECT_EQ(HoldsMvd(rel, Mvd({0}, {1})), HoldsMvd(rel, Mvd({0}, {2})));
}

TEST(MvdTest, EveryFdIsAnMvd) {
  const auto rel = MakeRelation({"A", "B", "C"}, {{"1", "x", "p"},
                                                  {"1", "x", "q"},
                                                  {"2", "y", "p"}});
  // A -> B holds, so A ->> B must hold.
  ASSERT_TRUE(Holds(rel, {AttributeSet::Single(0), AttributeSet::Single(1)}));
  EXPECT_TRUE(HoldsMvd(rel, Mvd({0}, {1})));
}

TEST(MvdTest, MatchesTupleSwapDefinitionOnRandomRelations) {
  size_t holding = 0;
  size_t failing = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    const auto rel = RandomRelation(3 + seed * 2, 4, 2, seed);
    for (uint64_t lhs = 0; lhs < 16; ++lhs) {
      for (uint64_t rhs = 1; rhs < 16; ++rhs) {
        const MultiValuedDependency mvd{AttributeSet(lhs), AttributeSet(rhs)};
        const bool holds = BruteHoldsMvd(rel, mvd);
        EXPECT_EQ(HoldsMvd(rel, mvd), holds)
            << "seed " << seed << " " << mvd.ToString(rel.schema());
        ++(holds ? holding : failing);
      }
    }
  }
  EXPECT_GT(holding, 0u);
  EXPECT_GT(failing, 0u);
}

TEST(MvdMinerTest, FindsPlantedMvd) {
  const auto rel = CourseTeacherBook();
  MvdMinerOptions options;
  options.skip_implied_by_fd = false;
  auto mvds = MineMvds(rel, options);
  ASSERT_TRUE(mvds.ok());
  EXPECT_TRUE(std::find(mvds->begin(), mvds->end(), Mvd({0}, {1})) !=
              mvds->end());
  EXPECT_TRUE(std::find(mvds->begin(), mvds->end(), Mvd({0}, {2})) !=
              mvds->end());
}

TEST(MvdMinerTest, SkipsFdImpliedMvds) {
  const auto rel = MakeRelation({"A", "B", "C"}, {{"1", "x", "p"},
                                                  {"1", "x", "q"},
                                                  {"2", "y", "p"}});
  auto mvds = MineMvds(rel, {});
  ASSERT_TRUE(mvds.ok());
  // A ->> B is implied by A -> B; with the default options it is skipped.
  EXPECT_TRUE(std::find(mvds->begin(), mvds->end(), Mvd({0}, {1})) ==
              mvds->end());
}

TEST(MvdMinerTest, MinedMvdsHold) {
  const auto rel = MakeRelation({"A", "B", "C", "D"},
                                {{"1", "x", "p", "m"},
                                 {"1", "x", "q", "m"},
                                 {"1", "y", "p", "m"},
                                 {"1", "y", "q", "m"},
                                 {"2", "x", "p", "n"}});
  MvdMinerOptions options;
  options.skip_implied_by_fd = false;
  auto mvds = MineMvds(rel, options);
  ASSERT_TRUE(mvds.ok());
  EXPECT_FALSE(mvds->empty());
  for (const auto& mvd : *mvds) {
    EXPECT_TRUE(HoldsMvd(rel, mvd)) << mvd.ToString(rel.schema());
  }
}

TEST(MvdMinerTest, ReportsOnlyMinimalLhs) {
  const auto rel = CourseTeacherBook();
  MvdMinerOptions options;
  options.skip_implied_by_fd = false;
  options.max_lhs = 2;
  auto mvds = MineMvds(rel, options);
  ASSERT_TRUE(mvds.ok());
  // Course ->> Teacher is found at LHS {Course}; no strict superset of a
  // reported LHS may appear for the same RHS.
  for (const auto& a : *mvds) {
    for (const auto& b : *mvds) {
      if (a.rhs == b.rhs && !(a.lhs == b.lhs)) {
        EXPECT_FALSE(a.lhs.IsSubsetOf(b.lhs))
            << a.ToString(rel.schema()) << " vs " << b.ToString(rel.schema());
      }
    }
  }
  EXPECT_TRUE(std::find(mvds->begin(), mvds->end(), Mvd({0}, {1})) !=
              mvds->end());
}

TEST(MvdMinerTest, TooFewAttributesYieldNothing) {
  const auto rel = MakeRelation({"A", "B"}, {{"1", "x"}, {"2", "y"}});
  auto mvds = MineMvds(rel, {});
  ASSERT_TRUE(mvds.ok());
  EXPECT_TRUE(mvds->empty());
}

}  // namespace
}  // namespace limbo::fd
