#include "fd/keys.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "datagen/db2_sample.h"
#include "fd/tane.h"
#include "relation/ops.h"
#include "testing/make_relation.h"
#include "util/random.h"

namespace limbo::fd {
namespace {

using limbo::testing::MakeRelation;

bool ContainsKey(const std::vector<AttributeSet>& keys, AttributeSet k) {
  return std::find(keys.begin(), keys.end(), k) != keys.end();
}

TEST(KeyMinerTest, SingleColumnKey) {
  const auto rel = MakeRelation({"K", "X"}, {{"1", "a"}, {"2", "a"},
                                             {"3", "b"}});
  auto keys = MineMinimalKeys(rel);
  ASSERT_TRUE(keys.ok());
  EXPECT_TRUE(ContainsKey(*keys, AttributeSet::Single(0)));
  // {K, X} is a superkey but not minimal.
  EXPECT_FALSE(ContainsKey(*keys, AttributeSet::FromList({0, 1})));
}

TEST(KeyMinerTest, CompositeKey) {
  const auto rel = MakeRelation({"A", "B", "C"},
                                {{"1", "x", "p"},
                                 {"1", "y", "p"},
                                 {"2", "x", "p"},
                                 {"2", "y", "q"}});
  auto keys = MineMinimalKeys(rel);
  ASSERT_TRUE(keys.ok());
  EXPECT_TRUE(ContainsKey(*keys, AttributeSet::FromList({0, 1})));
  EXPECT_FALSE(ContainsKey(*keys, AttributeSet::Single(0)));
}

TEST(KeyMinerTest, Db2JoinHasEmpNoProjNoKey) {
  auto rel = datagen::Db2Sample::JoinedRelation();
  KeyMinerOptions options;
  options.max_size = 2;
  auto keys = MineMinimalKeys(*rel, options);
  ASSERT_TRUE(keys.ok());
  const auto emp = rel->schema().Find("EmpNo").value();
  const auto proj = rel->schema().Find("ProjNo").value();
  EXPECT_TRUE(ContainsKey(
      *keys, AttributeSet::Single(emp).Union(AttributeSet::Single(proj))));
}

TEST(KeyMinerTest, MinimalityAgainstBruteForce) {
  // Property: every reported key is duplicate-free and one-step minimal;
  // checked against direct projection counting on random relations.
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    util::Random rng(seed);
    std::vector<std::vector<std::string>> rows;
    for (int t = 0; t < 25; ++t) {
      rows.push_back({"a" + std::to_string(rng.Uniform(5)),
                      "b" + std::to_string(rng.Uniform(4)),
                      "c" + std::to_string(rng.Uniform(3)),
                      "d" + std::to_string(rng.Uniform(6))});
    }
    const auto rel = MakeRelation({"A", "B", "C", "D"}, rows);
    auto keys = MineMinimalKeys(rel);
    ASSERT_TRUE(keys.ok());
    auto distinct = [&](AttributeSet x) {
      return relation::GroupRows(rel, x.ToList()).NumGroups() ==
             rel.NumTuples();
    };
    for (AttributeSet key : *keys) {
      EXPECT_TRUE(distinct(key)) << key.ToString(rel.schema());
      for (relation::AttributeId a : key.ToList()) {
        if (key.Count() > 1) {
          EXPECT_FALSE(distinct(key.Without(a)))
              << "not minimal: " << key.ToString(rel.schema());
        }
      }
    }
  }
}

TEST(KeyMinerTest, MaxSizeBoundsSearch) {
  const auto rel = MakeRelation({"A", "B", "C"},
                                {{"1", "x", "p"},
                                 {"1", "y", "p"},
                                 {"2", "x", "p"},
                                 {"2", "y", "q"}});
  KeyMinerOptions options;
  options.max_size = 1;
  auto keys = MineMinimalKeys(rel, options);
  ASSERT_TRUE(keys.ok());
  EXPECT_TRUE(keys->empty());  // the only minimal key has width 2
}

TEST(BcnfTest, ViolationRequiresNonSuperkeyLhs) {
  const std::vector<AttributeSet> keys = {AttributeSet::FromList({0, 1})};
  // LHS {0,1} contains a key: no violation.
  EXPECT_FALSE(ViolatesBcnf({AttributeSet::FromList({0, 1}),
                             AttributeSet::Single(2)},
                            keys));
  // LHS {2}: not a superkey -> violation.
  EXPECT_TRUE(ViolatesBcnf({AttributeSet::Single(2),
                            AttributeSet::Single(3)},
                           keys));
  // Trivial FD never violates.
  EXPECT_FALSE(ViolatesBcnf({AttributeSet::FromList({2, 3}),
                             AttributeSet::Single(3)},
                            keys));
}

TEST(BcnfTest, Db2DeptFdViolatesBcnf) {
  // [DeptNo] -> [DeptName] is the paper's canonical redundancy source:
  // DeptNo is not a key of the joined relation, so the FD violates BCNF
  // and justifies the decomposition Table 3 implies.
  auto rel = datagen::Db2Sample::JoinedRelation();
  KeyMinerOptions options;
  options.max_size = 2;
  auto keys = MineMinimalKeys(*rel, options);
  ASSERT_TRUE(keys.ok());
  const auto dept = rel->schema().Find("DeptNo").value();
  const auto name = rel->schema().Find("DeptName").value();
  EXPECT_TRUE(ViolatesBcnf(
      {AttributeSet::Single(dept), AttributeSet::Single(name)}, *keys));
}

}  // namespace
}  // namespace limbo::fd
