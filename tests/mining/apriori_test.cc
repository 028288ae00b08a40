#include "mining/apriori.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/value_clustering.h"
#include "testing/make_relation.h"

namespace limbo::mining {
namespace {

using limbo::testing::MakeRelation;
using limbo::testing::PaperFigure4;

/// Looks up the support of a given itemset (by value texts under
/// attribute indexes), or 0 if absent.
uint64_t SupportOf(const relation::Relation& rel,
                   const std::vector<Itemset>& itemsets,
                   const std::vector<std::pair<relation::AttributeId,
                                               std::string>>& spec) {
  std::vector<relation::ValueId> want;
  for (const auto& [attr, text] : spec) {
    auto v = rel.dictionary().Find(attr, text);
    if (!v.ok()) return 0;
    want.push_back(v.value());
  }
  std::sort(want.begin(), want.end());
  for (const Itemset& s : itemsets) {
    if (s.items == want) return s.support;
  }
  return 0;
}

TEST(AprioriTest, SingletonSupports) {
  const auto rel = PaperFigure4();
  auto result = MineFrequentItemsets(rel, {});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(SupportOf(rel, *result, {{0, "a"}}), 2u);
  EXPECT_EQ(SupportOf(rel, *result, {{1, "2"}}), 3u);
  EXPECT_EQ(SupportOf(rel, *result, {{2, "x"}}), 3u);
  // Values below min_support (2) are absent.
  EXPECT_EQ(SupportOf(rel, *result, {{0, "w"}}), 0u);
}

TEST(AprioriTest, PairCoOccurrence) {
  const auto rel = PaperFigure4();
  auto result = MineFrequentItemsets(rel, {});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(SupportOf(rel, *result, {{0, "a"}, {1, "1"}}), 2u);
  EXPECT_EQ(SupportOf(rel, *result, {{1, "2"}, {2, "x"}}), 3u);
  // a and 2 never co-occur.
  EXPECT_EQ(SupportOf(rel, *result, {{0, "a"}, {1, "2"}}), 0u);
}

TEST(AprioriTest, MinSupportFilters) {
  const auto rel = PaperFigure4();
  AprioriOptions options;
  options.min_support = 3;
  auto result = MineFrequentItemsets(rel, options);
  ASSERT_TRUE(result.ok());
  for (const Itemset& s : *result) EXPECT_GE(s.support, 3u);
  EXPECT_EQ(SupportOf(rel, *result, {{0, "a"}}), 0u);  // support 2 < 3
}

TEST(AprioriTest, MaxSizeLimitsLevels) {
  const auto rel = PaperFigure4();
  AprioriOptions options;
  options.max_size = 1;
  auto result = MineFrequentItemsets(rel, options);
  ASSERT_TRUE(result.ok());
  for (const Itemset& s : *result) EXPECT_EQ(s.items.size(), 1u);
}

TEST(AprioriTest, SupportsAreDownwardClosed) {
  const auto rel = MakeRelation({"A", "B", "C"},
                                {{"1", "x", "p"},
                                 {"1", "x", "p"},
                                 {"1", "x", "q"},
                                 {"2", "y", "p"}});
  auto result = MineFrequentItemsets(rel, {});
  ASSERT_TRUE(result.ok());
  // Every itemset's support is <= that of each of its subsets.
  for (const Itemset& s : *result) {
    for (size_t drop = 0; drop < s.items.size() && s.items.size() > 1;
         ++drop) {
      std::vector<relation::ValueId> subset;
      for (size_t i = 0; i < s.items.size(); ++i) {
        if (i != drop) subset.push_back(s.items[i]);
      }
      for (const Itemset& sub : *result) {
        if (sub.items == subset) {
          EXPECT_GE(sub.support, s.support);
        }
      }
    }
  }
}

TEST(AprioriTest, RejectsZeroSupport) {
  const auto rel = PaperFigure4();
  AprioriOptions options;
  options.min_support = 0;
  EXPECT_FALSE(MineFrequentItemsets(rel, options).ok());
}

TEST(AprioriTest, AlignsWithPhiZeroValueClustering) {
  // The paper (Section 8.1.2) notes that φ_V = 0 value clustering finds
  // exactly the perfectly co-occurring value groups — for each CV_D group
  // there must be a frequent itemset with support = the members' common
  // support.
  const auto rel = PaperFigure4();
  auto clusters = core::ClusterValues(rel, {});
  ASSERT_TRUE(clusters.ok());
  auto itemsets = MineFrequentItemsets(rel, {});
  ASSERT_TRUE(itemsets.ok());
  for (size_t gi : clusters->duplicate_groups) {
    std::vector<relation::ValueId> items = clusters->groups[gi].values;
    std::sort(items.begin(), items.end());
    bool found = false;
    for (const Itemset& s : *itemsets) {
      if (s.items == items) {
        found = true;
        EXPECT_EQ(s.support,
                  rel.dictionary().Support(items[0]));
      }
    }
    EXPECT_TRUE(found);
  }
}

}  // namespace
}  // namespace limbo::mining
