#include "fd/partition.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "fd/fd.h"
#include "testing/make_relation.h"
#include "util/random.h"

namespace limbo::fd {
namespace {

using limbo::testing::MakeRelation;

TEST(StrippedPartitionTest, SingleAttributeStripsSingletons) {
  const auto rel =
      MakeRelation({"A"}, {{"x"}, {"y"}, {"x"}, {"z"}, {"x"}, {"y"}});
  const auto p = StrippedPartition::ForAttribute(rel, 0);
  // Classes: {0,2,4} (x), {1,5} (y); z is a singleton and stripped.
  EXPECT_EQ(p.NumClasses(), 2u);
  EXPECT_EQ(p.CoveredTuples(), 5u);
  EXPECT_EQ(p.Rank(), 3u);  // covered - classes = n - |π_full| = 6 - 3
  EXPECT_FALSE(p.IsSuperkey());
}

std::vector<relation::TupleId> ClassAt(const StrippedPartition& p, size_t i) {
  return {p.Class(i).begin(), p.Class(i).end()};
}

TEST(StrippedPartitionTest, ClassesComeInOrderOfFirstTuple) {
  const auto rel =
      MakeRelation({"A"}, {{"y"}, {"x"}, {"y"}, {"z"}, {"x"}, {"x"}});
  const auto p = StrippedPartition::ForAttribute(rel, 0);
  ASSERT_EQ(p.NumClasses(), 2u);
  EXPECT_EQ(ClassAt(p, 0), (std::vector<relation::TupleId>{0, 2}));
  EXPECT_EQ(ClassAt(p, 1), (std::vector<relation::TupleId>{1, 4, 5}));
}

TEST(StrippedPartitionTest, EmptyRelationHasNoClasses) {
  const auto rel = MakeRelation({"A", "B"}, {});
  const auto pa = StrippedPartition::ForAttribute(rel, 0);
  EXPECT_EQ(pa.NumClasses(), 0u);
  EXPECT_EQ(pa.CoveredTuples(), 0u);
  EXPECT_TRUE(pa.IsSuperkey());
  EXPECT_EQ(pa.Rank(), 0u);
  const auto pab = StrippedPartition::Product(
      pa, StrippedPartition::ForAttribute(rel, 1), 0);
  EXPECT_TRUE(pab.IsSuperkey());
  EXPECT_EQ(pab.CoveredTuples(), 0u);
}

TEST(StrippedPartitionTest, SingleTupleIsSuperkey) {
  const auto rel = MakeRelation({"A", "B"}, {{"x", "y"}});
  const auto pa = StrippedPartition::ForAttribute(rel, 0);
  EXPECT_TRUE(pa.IsSuperkey());
  EXPECT_EQ(pa.CoveredTuples(), 0u);
  EXPECT_EQ(pa.Rank(), 0u);
  const auto pab = StrippedPartition::Product(
      pa, StrippedPartition::ForAttribute(rel, 1), 1);
  EXPECT_TRUE(pab.IsSuperkey());
  EXPECT_EQ(pab.Rank(), 0u);
}

TEST(StrippedPartitionTest, ProductWithAllSingletonSideHasNoClasses) {
  // A is constant (one class of every tuple), B is a key (no classes).
  const auto rel =
      MakeRelation({"A", "B"}, {{"c", "1"}, {"c", "2"}, {"c", "3"}});
  const size_t n = rel.NumTuples();
  const auto pa = StrippedPartition::ForAttribute(rel, 0);
  const auto pb = StrippedPartition::ForAttribute(rel, 1);
  ASSERT_EQ(pa.NumClasses(), 1u);
  ASSERT_TRUE(pb.IsSuperkey());
  for (const auto& product : {StrippedPartition::Product(pa, pb, n),
                              StrippedPartition::Product(pb, pa, n)}) {
    EXPECT_EQ(product.NumClasses(), 0u);
    EXPECT_EQ(product.CoveredTuples(), 0u);
    EXPECT_TRUE(product.IsSuperkey());
    EXPECT_EQ(product.Rank(), 0u);
  }
}

TEST(StrippedPartitionTest, KeyAttributeIsSuperkey) {
  const auto rel = MakeRelation({"A"}, {{"1"}, {"2"}, {"3"}});
  const auto p = StrippedPartition::ForAttribute(rel, 0);
  EXPECT_TRUE(p.IsSuperkey());
  EXPECT_EQ(p.Rank(), 0u);
}

TEST(StrippedPartitionTest, ConstantAttributeOneClass) {
  const auto rel = MakeRelation({"A"}, {{"c"}, {"c"}, {"c"}});
  const auto p = StrippedPartition::ForAttribute(rel, 0);
  ASSERT_EQ(p.NumClasses(), 1u);
  EXPECT_EQ(ClassAt(p, 0), (std::vector<relation::TupleId>{0, 1, 2}));
  EXPECT_EQ(p.CoveredTuples(), 3u);
  EXPECT_EQ(p.Rank(), 2u);  // n - 1
}

TEST(StrippedPartitionTest, ProductRefines) {
  const auto rel = MakeRelation({"A", "B"}, {{"x", "1"},
                                             {"x", "1"},
                                             {"x", "2"},
                                             {"y", "1"},
                                             {"y", "1"}});
  const size_t n = rel.NumTuples();
  const auto pa = StrippedPartition::ForAttribute(rel, 0);
  const auto pb = StrippedPartition::ForAttribute(rel, 1);
  const auto pab = StrippedPartition::Product(pa, pb, n);
  // π_{A,B} classes: {0,1} (x1), {3,4} (y1); (x,2) is singleton.
  EXPECT_EQ(pab.NumClasses(), 2u);
  EXPECT_EQ(pab.CoveredTuples(), 4u);
  EXPECT_EQ(pab.Rank(), 2u);
}

TEST(StrippedPartitionTest, ProductIsCommutativeInRank) {
  const auto rel = MakeRelation(
      {"A", "B"},
      {{"x", "1"}, {"x", "2"}, {"y", "1"}, {"y", "2"}, {"x", "1"}});
  const size_t n = rel.NumTuples();
  const auto pa = StrippedPartition::ForAttribute(rel, 0);
  const auto pb = StrippedPartition::ForAttribute(rel, 1);
  const auto ab = StrippedPartition::Product(pa, pb, n);
  const auto ba = StrippedPartition::Product(pb, pa, n);
  EXPECT_EQ(ab.Rank(), ba.Rank());
  EXPECT_EQ(ab.NumClasses(), ba.NumClasses());
}

TEST(StrippedPartitionTest, FdDetectionViaRank) {
  // A -> B holds: every A-class agrees on B.
  const auto rel = MakeRelation(
      {"A", "B"}, {{"x", "1"}, {"x", "1"}, {"y", "2"}, {"y", "2"}});
  const size_t n = rel.NumTuples();
  const auto pa = StrippedPartition::ForAttribute(rel, 0);
  const auto pb = StrippedPartition::ForAttribute(rel, 1);
  const auto pab = StrippedPartition::Product(pa, pb, n);
  EXPECT_EQ(pa.Rank(), pab.Rank());   // A -> B
  EXPECT_EQ(pb.Rank(), pab.Rank());   // B -> A (also holds here)
}

TEST(StrippedPartitionTest, FdViolationChangesRank) {
  const auto rel = MakeRelation(
      {"A", "B"}, {{"x", "1"}, {"x", "2"}, {"y", "1"}, {"y", "1"}});
  const size_t n = rel.NumTuples();
  const auto pa = StrippedPartition::ForAttribute(rel, 0);
  const auto pab = StrippedPartition::Product(
      pa, StrippedPartition::ForAttribute(rel, 1), n);
  EXPECT_NE(pa.Rank(), pab.Rank());  // A -> B fails on x
}

std::vector<uint64_t> SortedSizes(const StrippedPartition& p) {
  std::vector<uint64_t> sizes;
  for (size_t i = 0; i < p.NumClasses(); ++i) {
    sizes.push_back(p.Class(i).size());
  }
  std::sort(sizes.begin(), sizes.end());
  return sizes;
}

std::vector<uint64_t> CountedSizes(PartitionProbe& probe,
                                   const StrippedPartition& a,
                                   const StrippedPartition& b, size_t n) {
  probe.Load(a, n);
  std::vector<uint64_t> sizes{99};  // Count must replace, not append
  probe.Count(b, &sizes);
  std::sort(sizes.begin(), sizes.end());
  return sizes;
}

/// Counts a · b with `probe` and checks it against Product's classes.
void ExpectCountMatchesProduct(PartitionProbe& probe,
                               const StrippedPartition& a,
                               const StrippedPartition& b, size_t n) {
  EXPECT_EQ(CountedSizes(probe, a, b, n),
            SortedSizes(StrippedPartition::Product(a, b, n)));
}

using Classes = std::vector<std::vector<relation::TupleId>>;

/// The stripped classes of `rel` under `x`, grouped straight from the
/// rows, each and all sorted.
Classes GroupedClasses(const relation::Relation& rel, AttributeSet x) {
  std::map<std::vector<relation::ValueId>, std::vector<relation::TupleId>>
      groups;
  for (relation::TupleId t = 0; t < rel.NumTuples(); ++t) {
    std::vector<relation::ValueId> key;
    for (relation::AttributeId a : x.ToList()) key.push_back(rel.At(t, a));
    groups[key].push_back(t);
  }
  Classes out;
  for (auto& [key, tuples] : groups) {
    if (tuples.size() >= 2) out.push_back(tuples);
  }
  std::sort(out.begin(), out.end());
  return out;
}

Classes SortedClasses(const StrippedPartition& p) {
  Classes out;
  for (size_t i = 0; i < p.NumClasses(); ++i) {
    out.emplace_back(p.Class(i).begin(), p.Class(i).end());
    std::sort(out.back().begin(), out.back().end());
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Meets π_x (`a`) with π_y (`b`) through one probe load and checks each
/// path: Product against the rows grouped under x ∪ y, Count against
/// Product's class sizes in order, and G3Kept against fd::G3Error(x → y).
void ExpectProbeMatches(PartitionProbe& probe, const relation::Relation& rel,
                        AttributeSet x, const StrippedPartition& a,
                        AttributeSet y, const StrippedPartition& b) {
  SCOPED_TRACE(x.ToString(rel.schema()) + " . " + y.ToString(rel.schema()));
  const size_t n = rel.NumTuples();
  probe.Load(a, n);
  const StrippedPartition product = probe.Product(b);
  const Classes grouped = GroupedClasses(rel, x.Union(y));
  EXPECT_EQ(SortedClasses(product), grouped);
  size_t covered = 0;
  for (const auto& cls : grouped) covered += cls.size();
  EXPECT_EQ(product.CoveredTuples(), covered);
  std::vector<uint64_t> sizes;
  probe.Count(b, &sizes);
  std::vector<uint64_t> product_sizes;
  for (size_t i = 0; i < product.NumClasses(); ++i) {
    product_sizes.push_back(product.Class(i).size());
  }
  EXPECT_EQ(sizes, product_sizes);
  const double removed = G3Error(rel, {x, y}) * static_cast<double>(n);
  EXPECT_EQ(probe.G3Kept(b), n - static_cast<uint64_t>(std::llround(removed)));
}

TEST(ProductCounterTest, MatchesProductOnRandomRelations) {
  // One probe across every product: reused scratch must not leak.
  PartitionProbe probe;
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    util::Random rng(seed);
    const size_t rows = 1 + rng.Uniform(300);
    std::vector<std::vector<std::string>> data;
    for (size_t t = 0; t < rows; ++t) {
      data.push_back({"a" + std::to_string(rng.Uniform(3)),
                      "b" + std::to_string(rng.Uniform(7)),
                      "c" + std::to_string(rng.Uniform(40))});
    }
    const auto rel = MakeRelation({"A", "B", "C"}, data);
    const size_t n = rel.NumTuples();
    std::vector<AttributeSet> sets;
    std::vector<StrippedPartition> p;
    for (relation::AttributeId a = 0; a < 3; ++a) {
      sets.push_back(AttributeSet::Single(a));
      p.push_back(StrippedPartition::ForAttribute(rel, a));
    }
    sets.push_back(sets[0].Union(sets[1]));
    p.push_back(StrippedPartition::Product(p[0], p[1], n));
    for (size_t x = 0; x < p.size(); ++x) {
      for (size_t y = 0; y < p.size(); ++y) {
        ExpectProbeMatches(probe, rel, sets[x], p[x], sets[y], p[y]);
      }
    }
  }
}

TEST(ProductCounterTest, EdgeCases) {
  PartitionProbe probe;
  // n = 0.
  const auto empty = MakeRelation({"A", "B"}, {});
  ExpectCountMatchesProduct(probe,
                            StrippedPartition::ForAttribute(empty, 0),
                            StrippedPartition::ForAttribute(empty, 1), 0);
  // All singletons: both sides are keys, nothing survives.
  const auto keys = MakeRelation({"A", "B"}, {{"1", "x"}, {"2", "y"}});
  const auto ka = StrippedPartition::ForAttribute(keys, 0);
  const auto kb = StrippedPartition::ForAttribute(keys, 1);
  EXPECT_TRUE(CountedSizes(probe, ka, kb, 2).empty());
  ExpectCountMatchesProduct(probe, ka, kb, 2);
  // One class: constant columns.
  const auto constant =
      MakeRelation({"A", "B"}, {{"c", "d"}, {"c", "d"}, {"c", "d"}});
  const auto ca = StrippedPartition::ForAttribute(constant, 0);
  const auto cb = StrippedPartition::ForAttribute(constant, 1);
  EXPECT_EQ(CountedSizes(probe, ca, cb, 3), std::vector<uint64_t>{3});
  ExpectCountMatchesProduct(probe, ca, cb, 3);
  // Disjoint coverage: A's classes cover tuples 0-3, B's cover 4-7.
  const auto disjoint = MakeRelation(
      {"A", "B"}, {{"x", "1"}, {"x", "2"}, {"y", "3"}, {"y", "4"},
                   {"5", "p"}, {"6", "p"}, {"7", "q"}, {"8", "q"}});
  const auto da = StrippedPartition::ForAttribute(disjoint, 0);
  const auto db = StrippedPartition::ForAttribute(disjoint, 1);
  EXPECT_TRUE(CountedSizes(probe, da, db, 8).empty());
  ExpectCountMatchesProduct(probe, da, db, 8);
  ExpectCountMatchesProduct(probe, db, da, 8);
}

TEST(ProductCounterTest, OneProbeCountsManyPartitionsWithoutLeaking) {
  const auto rel = MakeRelation({"A", "B", "C"}, {{"x", "1", "p"},
                                                  {"x", "1", "p"},
                                                  {"x", "2", "p"},
                                                  {"x", "2", "q"},
                                                  {"y", "1", "q"},
                                                  {"y", "1", "q"}});
  const size_t n = rel.NumTuples();
  const auto pa = StrippedPartition::ForAttribute(rel, 0);
  const auto pb = StrippedPartition::ForAttribute(rel, 1);
  const auto pc = StrippedPartition::ForAttribute(rel, 2);
  PartitionProbe probe;
  probe.Load(pa, n);
  std::vector<uint64_t> sizes;
  for (int round = 0; round < 2; ++round) {
    probe.Count(pb, &sizes);
    std::sort(sizes.begin(), sizes.end());
    EXPECT_EQ(sizes, SortedSizes(StrippedPartition::Product(pa, pb, n)));
    probe.Count(pc, &sizes);
    std::sort(sizes.begin(), sizes.end());
    EXPECT_EQ(sizes, SortedSizes(StrippedPartition::Product(pa, pc, n)));
  }
}

}  // namespace
}  // namespace limbo::fd
