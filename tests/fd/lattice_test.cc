#include "fd/lattice.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <string>
#include <vector>

#include "testing/make_relation.h"
#include "util/random.h"

namespace limbo::fd {
namespace {

void SortLexicographically(std::vector<AttributeSet>* sets) {
  std::sort(sets->begin(), sets->end(), [](AttributeSet a, AttributeSet b) {
    return a.ToList() < b.ToList();
  });
}

bool Contains(const std::vector<AttributeSet>& sets, AttributeSet x) {
  return std::find(sets.begin(), sets.end(), x) != sets.end();
}

TEST(AprioriJoinTest, MatchesBruteForceOnRandomLevels) {
  util::Random rng(7);
  for (int round = 0; round < 300; ++round) {
    const size_t m = 1 + rng.Uniform(8);
    const size_t ell = 1 + rng.Uniform(m);
    const uint64_t keep_in_ten = rng.Uniform(11);
    std::vector<AttributeSet> level;
    for (uint64_t bits = 0; bits < (uint64_t{1} << m); ++bits) {
      if (static_cast<size_t>(std::popcount(bits)) == ell &&
          rng.Uniform(10) < keep_in_ten) {
        level.push_back(AttributeSet(bits));
      }
    }
    SortLexicographically(&level);

    std::vector<AttributeSet> want;
    for (uint64_t bits = 0; bits < (uint64_t{1} << m); ++bits) {
      const AttributeSet z(bits);
      if (z.Count() != ell + 1) continue;
      bool every_subset_alive = true;
      for (relation::AttributeId a : z.ToList()) {
        every_subset_alive &= Contains(level, z.Without(a));
      }
      if (every_subset_alive) want.push_back(z);
    }
    SortLexicographically(&want);

    const std::vector<LatticeJoin> joins = AprioriJoin(level);
    std::vector<AttributeSet> got;
    for (const LatticeJoin& join : joins) {
      got.push_back(join.set);
      // The parents are the set less one of its two largest attributes.
      const std::vector<relation::AttributeId> attrs = join.set.ToList();
      ASSERT_LT(join.left, join.right);
      ASSERT_LT(join.right, level.size());
      EXPECT_EQ(level[join.left], join.set.Without(attrs[ell]));
      EXPECT_EQ(level[join.right], join.set.Without(attrs[ell - 1]));
    }
    EXPECT_EQ(got, want) << "m=" << m << " ell=" << ell
                         << " alive=" << level.size();
  }
}

/// The stripped classes of `rel` under `x`, grouped straight from the
/// rows, each and all sorted.
std::vector<std::vector<relation::TupleId>> GroupedClasses(
    const relation::Relation& rel, AttributeSet x) {
  std::map<std::vector<relation::ValueId>, std::vector<relation::TupleId>>
      groups;
  for (relation::TupleId t = 0; t < rel.NumTuples(); ++t) {
    std::vector<relation::ValueId> key;
    for (relation::AttributeId a : x.ToList()) key.push_back(rel.At(t, a));
    groups[key].push_back(t);
  }
  std::vector<std::vector<relation::TupleId>> out;
  for (auto& [key, tuples] : groups) {
    if (tuples.size() >= 2) out.push_back(tuples);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::vector<relation::TupleId>> SortedClasses(
    const StrippedPartition& p) {
  std::vector<std::vector<relation::TupleId>> out;
  for (size_t i = 0; i < p.NumClasses(); ++i) {
    out.emplace_back(p.Class(i).begin(), p.Class(i).end());
    std::sort(out.back().begin(), out.back().end());
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(PartitionLatticeTest, WalksEverySetWithoutADroppedSubset) {
  util::Random rng(5);
  const size_t m = 6;
  std::vector<std::string> header;
  for (size_t a = 0; a < m; ++a) header.push_back("A" + std::to_string(a));
  std::vector<std::vector<std::string>> rows;
  for (size_t t = 0; t < 80; ++t) {
    std::vector<std::string> row;
    for (size_t a = 0; a < m; ++a) {
      row.push_back(std::to_string(rng.Uniform(2 + a)));
    }
    rows.push_back(std::move(row));
  }
  const auto rel = testing::MakeRelation(header, rows);

  PartitionLattice lattice(rel);
  std::vector<AttributeSet> dropped;
  size_t ell = 1;
  for (; !lattice.level().empty(); ++ell) {
    const std::vector<PartitionLattice::Node>& level = lattice.level();
    size_t walked = 0;
    for (uint64_t bits = 0; bits < (uint64_t{1} << m); ++bits) {
      const AttributeSet x(bits);
      if (x.Count() != ell) continue;
      bool extends_dropped = false;
      for (AttributeSet d : dropped) extends_dropped |= d.IsSubsetOf(x);
      const size_t i = lattice.Find(x);
      if (extends_dropped) {
        EXPECT_EQ(i, level.size()) << x.ToString(rel.schema());
        continue;
      }
      ASSERT_LT(i, level.size()) << x.ToString(rel.schema());
      ++walked;
      EXPECT_EQ(SortedClasses(level[i].partition), GroupedClasses(rel, x))
          << x.ToString(rel.schema());
    }
    EXPECT_EQ(walked, level.size());
    for (size_t i = 0; i < level.size(); ++i) {
      if (rng.Uniform(5) == 0) {
        dropped.push_back(level[i].set);
        lattice.Drop(i);
      }
    }
    lattice.Advance();
  }
  EXPECT_GT(ell, 3u);
}

}  // namespace
}  // namespace limbo::fd
