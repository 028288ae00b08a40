#include "schemes/entropy_oracle.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "datagen/db2_sample.h"
#include "datagen/dblp.h"
#include "fd/attribute_set.h"
#include "relation/relation.h"
#include "relation/row_source.h"
#include "schemes/mine.h"
#include "testing/make_relation.h"
#include "util/random.h"

namespace limbo::schemes {
namespace {

using fd::AttributeSet;
using limbo::testing::RandomRelation;

/// Ground-truth H(X): project every tuple onto X's attribute texts and
/// count distinct combinations the slow, obvious way.
double BruteForceEntropy(const relation::Relation& rel, AttributeSet x) {
  std::map<std::vector<std::string>, uint64_t> counts;
  for (relation::TupleId t = 0; t < rel.NumTuples(); ++t) {
    std::vector<std::string> key;
    for (relation::AttributeId a : x.ToList()) {
      key.push_back(rel.TextAt(t, a));
    }
    ++counts[key];
  }
  const double n = static_cast<double>(rel.NumTuples());
  double h = std::log2(n);
  for (const auto& [key, c] : counts) {
    h -= static_cast<double>(c) * std::log2(static_cast<double>(c)) / n;
  }
  return h < 0.0 ? 0.0 : h;
}

TEST(EntropyFromCounts, KnownValues) {
  // Uniform over 4 -> 2 bits; a point mass -> 0; empty -> 0.
  EXPECT_DOUBLE_EQ(EntropyFromCounts({1, 1, 1, 1}, 4), 2.0);
  EXPECT_DOUBLE_EQ(EntropyFromCounts({5}, 5), 0.0);
  EXPECT_DOUBLE_EQ(EntropyFromCounts({}, 0), 0.0);
  // {2,1,1} over 4: log2(4) - (2*1)/4 = 1.5.
  EXPECT_DOUBLE_EQ(EntropyFromCounts({2, 1, 1}, 4), 1.5);
}

TEST(EntropyFromCounts, OrderIndependent) {
  const std::vector<uint64_t> counts = {7, 1, 3, 9, 2, 2, 5};
  std::vector<uint64_t> reversed(counts.rbegin(), counts.rend());
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  EXPECT_EQ(EntropyFromCounts(counts, total),
            EntropyFromCounts(reversed, total));
}

TEST(EntropyOracle, MatchesBruteForceOnPaperExample) {
  const relation::Relation rel = limbo::testing::PaperFigure4();
  relation::RelationRowSource source(rel);
  EntropyOracle oracle(source);
  const size_t m = rel.NumAttributes();
  for (uint64_t bits = 0; bits < (uint64_t{1} << m); ++bits) {
    const AttributeSet x(bits);
    auto h = oracle.H(x);
    ASSERT_TRUE(h.ok()) << h.status().ToString();
    EXPECT_NEAR(*h, BruteForceEntropy(rel, x), 1e-12) << x.bits();
  }
}

TEST(EntropyOracle, MatchesBruteForceOnRandomRelations) {
  for (uint64_t seed : {1u, 7u, 42u}) {
    const relation::Relation rel = RandomRelation(200, 4, 3, seed);
    relation::RelationRowSource source(rel);
    EntropyOracle oracle(source);
    std::vector<AttributeSet> sets;
    for (uint64_t bits = 1; bits < 16; ++bits) sets.push_back(AttributeSet(bits));
    auto hs = oracle.HBatch(sets);
    ASSERT_TRUE(hs.ok());
    for (size_t i = 0; i < sets.size(); ++i) {
      EXPECT_NEAR((*hs)[i], BruteForceEntropy(rel, sets[i]), 1e-12);
    }
  }
}

TEST(EntropyOracle, EmptySetIsZeroWithoutAPass) {
  const relation::Relation rel = limbo::testing::PaperFigure4();
  relation::RelationRowSource source(rel);
  EntropyOracle oracle(source);
  auto h = oracle.H(AttributeSet());
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(*h, 0.0);
  EXPECT_EQ(oracle.stats().passes, 0u);
}

TEST(EntropyOracle, MonotoneInTheSubset) {
  // H is monotone: adding attributes never loses information.
  for (uint64_t seed : {3u, 11u, 99u}) {
    const relation::Relation rel = RandomRelation(150, 5, 3, seed);
    relation::RelationRowSource source(rel);
    EntropyOracle oracle(source);
    util::Random rng(seed * 31 + 1);
    for (int trial = 0; trial < 20; ++trial) {
      const AttributeSet x(rng.Uniform(32));
      const AttributeSet xy(
          x.Union(AttributeSet(rng.Uniform(32))).bits());
      auto hx = oracle.H(x);
      auto hxy = oracle.H(xy);
      ASSERT_TRUE(hx.ok() && hxy.ok());
      EXPECT_GE(*hxy, *hx - 1e-12);
    }
  }
}

TEST(EntropyOracle, SubmodularOnRandomRelations) {
  // Diminishing returns: for X ⊆ Y and a ∉ Y,
  //   H(X ∪ a) − H(X) >= H(Y ∪ a) − H(Y).
  for (uint64_t seed : {5u, 23u, 77u}) {
    const relation::Relation rel = RandomRelation(150, 5, 3, seed);
    relation::RelationRowSource source(rel);
    EntropyOracle oracle(source);
    util::Random rng(seed * 17 + 3);
    for (int trial = 0; trial < 20; ++trial) {
      const AttributeSet y(rng.Uniform(32));
      const AttributeSet x = y.Intersect(AttributeSet(rng.Uniform(32)));
      const relation::AttributeId a =
          static_cast<relation::AttributeId>(rng.Uniform(5));
      if (y.Contains(a)) continue;
      auto hx = oracle.H(x);
      auto hxa = oracle.H(x.With(a));
      auto hy = oracle.H(y);
      auto hya = oracle.H(y.With(a));
      ASSERT_TRUE(hx.ok() && hxa.ok() && hy.ok() && hya.ok());
      EXPECT_GE((*hxa - *hx) - (*hya - *hy), -1e-12);
    }
  }
}

TEST(EntropyOracle, BitIdenticalAcrossLaneCounts) {
  const relation::Relation rel = RandomRelation(500, 6, 4, 2026);
  std::vector<AttributeSet> sets;
  for (uint64_t bits = 1; bits < 64; ++bits) sets.push_back(AttributeSet(bits));
  std::vector<double> reference;
  for (size_t threads : {1u, 2u, 4u}) {
    relation::RelationRowSource source(rel);
    EntropyOracleOptions options;
    options.threads = threads;
    EntropyOracle oracle(source, options);
    auto hs = oracle.HBatch(sets);
    ASSERT_TRUE(hs.ok());
    if (reference.empty()) {
      reference = *hs;
      continue;
    }
    for (size_t i = 0; i < sets.size(); ++i) {
      // Exact equality — the sorted-counts reduction is the contract.
      EXPECT_EQ((*hs)[i], reference[i]) << "set " << sets[i].bits()
                                        << " at " << threads << " lanes";
    }
  }
}

TEST(EntropyOracle, BatchingNeverChangesBits) {
  // One large batch, many small ones, and one-at-a-time H (with the memo
  // off, so every call walks the trie again) give identical bits: each set
  // is resolved exactly, whatever else shares its batch.
  const relation::Relation rel = RandomRelation(300, 6, 4, 9);
  std::vector<AttributeSet> sets;
  for (uint64_t bits = 1; bits < 64; ++bits) sets.push_back(AttributeSet(bits));
  relation::RelationRowSource large_source(rel);
  EntropyOracle large(large_source);
  auto reference = large.HBatch(sets);
  ASSERT_TRUE(reference.ok());

  relation::RelationRowSource small_source(rel);
  EntropyOracle small(small_source);
  std::vector<double> batched;
  for (size_t lo = 0; lo < sets.size(); lo += 4) {
    const std::vector<AttributeSet> chunk(
        sets.begin() + lo, sets.begin() + std::min(lo + 4, sets.size()));
    auto hs = small.HBatch(chunk);
    ASSERT_TRUE(hs.ok());
    batched.insert(batched.end(), hs->begin(), hs->end());
  }

  relation::RelationRowSource single_source(rel);
  EntropyOracleOptions no_memo;
  no_memo.memo_entries = 0;
  EntropyOracle single(single_source, no_memo);
  for (size_t i = 0; i < sets.size(); ++i) {
    auto h = single.H(sets[i]);
    ASSERT_TRUE(h.ok());
    EXPECT_EQ(*h, (*reference)[i]) << "set " << sets[i].bits();
    EXPECT_EQ(batched[i], (*reference)[i]) << "set " << sets[i].bits();
  }
  EXPECT_EQ(single.stats().sets_counted, sets.size());
  for (const EntropyOracle* o : {&large, &small, &single}) {
    EXPECT_EQ(o->stats().passes, 1u);
  }
}

/// A RowSource over literal rows (ragged ones allowed) that counts how
/// often it is reset and read.
class CountingSource final : public relation::RowSource {
 public:
  CountingSource(std::vector<std::string> header,
                 std::vector<std::vector<std::string>> rows)
      : schema_(relation::Schema::Create(std::move(header)).value()),
        rows_(std::move(rows)) {}

  const relation::Schema& schema() const override { return schema_; }
  util::Result<bool> Next(std::vector<std::string>* fields) override {
    ++nexts;
    if (next_ == rows_.size()) return false;
    *fields = rows_[next_++];
    return true;
  }
  util::Status Reset() override {
    ++resets;
    next_ = 0;
    return util::Status::Ok();
  }

  size_t resets = 0;
  size_t nexts = 0;

 private:
  relation::Schema schema_;
  std::vector<std::vector<std::string>> rows_;
  size_t next_ = 0;
};

TEST(EntropyOracle, ReadsTheSourceExactlyOnce) {
  std::vector<std::vector<std::string>> rows;
  util::Random rng(13);
  for (int t = 0; t < 120; ++t) {
    std::vector<std::string> row;
    for (int a = 0; a < 4; ++a) row.push_back(std::to_string(rng.Uniform(3)));
    rows.push_back(std::move(row));
  }
  CountingSource source({"A", "B", "C", "D"}, rows);
  EntropyOracleOptions options;
  options.memo_entries = 2;  // evictions force sets to be counted again
  EntropyOracle oracle(source, options);
  ASSERT_TRUE(oracle.H(AttributeSet()).ok());
  EXPECT_EQ(source.resets, 0u);
  std::vector<AttributeSet> all;
  for (uint64_t bits = 1; bits < 16; ++bits) all.push_back(AttributeSet(bits));
  ASSERT_TRUE(oracle.HBatch(all).ok());
  ASSERT_TRUE(oracle.H(AttributeSet::Single(2)).ok());
  ASSERT_TRUE(oracle.HBatch({AttributeSet(0b0101), AttributeSet(0b1010)}).ok());
  ASSERT_TRUE(oracle.HBatch(all).ok());
  ASSERT_TRUE(oracle.H(AttributeSet::Full(4)).ok());
  EXPECT_EQ(source.resets, 1u);
  EXPECT_EQ(source.nexts, rows.size() + 1);  // every row, then end of data
  EXPECT_EQ(oracle.stats().passes, 1u);
  EXPECT_EQ(oracle.stats().rows_read, rows.size());
  EXPECT_EQ(oracle.num_rows(), rows.size());
}

TEST(EntropyOracle, RejectsRaggedRowsAndOutOfSchemaSets) {
  CountingSource ragged({"A", "B", "C"}, {{"a", "b", "c"}, {"a", "b"}});
  EntropyOracle ragged_oracle(ragged);
  auto h = ragged_oracle.H(AttributeSet::Single(0));
  ASSERT_FALSE(h.ok());
  EXPECT_EQ(h.status().code(), util::StatusCode::kInvalidArgument);

  CountingSource source({"A", "B", "C"}, {{"a", "b", "c"}, {"a", "d", "c"}});
  EntropyOracle oracle(source);
  auto outside = oracle.HBatch({AttributeSet::Single(1), AttributeSet(0b1001)});
  ASSERT_FALSE(outside.ok());
  EXPECT_EQ(outside.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_EQ(source.resets, 0u);  // rejected before the source is read
}

TEST(EntropyOracle, MemoAbsorbsRepeatQueries) {
  const relation::Relation rel = limbo::testing::PaperFigure4();
  relation::RelationRowSource source(rel);
  EntropyOracle oracle(source);
  const AttributeSet x = AttributeSet::Single(0);
  ASSERT_TRUE(oracle.H(x).ok());
  const uint64_t passes = oracle.stats().passes;
  ASSERT_TRUE(oracle.H(x).ok());
  EXPECT_EQ(oracle.stats().passes, passes);
  EXPECT_GE(oracle.stats().memo_hits, 1u);
}

TEST(EntropyOracle, BatchDeduplicatesAndPreservesOrder) {
  const relation::Relation rel = limbo::testing::PaperFigure4();
  relation::RelationRowSource source(rel);
  EntropyOracle oracle(source);
  const AttributeSet a = AttributeSet::Single(0);
  const AttributeSet b = AttributeSet::Single(1);
  auto hs = oracle.HBatch({a, b, a, AttributeSet(), b});
  ASSERT_TRUE(hs.ok());
  ASSERT_EQ(hs->size(), 5u);
  EXPECT_EQ((*hs)[0], (*hs)[2]);
  EXPECT_EQ((*hs)[1], (*hs)[4]);
  EXPECT_EQ((*hs)[3], 0.0);
  EXPECT_EQ(oracle.stats().sets_counted, 2u);
}

TEST(EntropyOracle, RejectsOutOfRangeAttributes) {
  const relation::Relation rel = limbo::testing::PaperFigure4();  // 3 attrs
  relation::RelationRowSource source(rel);
  EntropyOracle oracle(source);
  EXPECT_FALSE(oracle.H(AttributeSet::Single(7)).ok());
}

// ------------------------------------------------------------- golden --

/// IEEE-754 bit patterns of H(X) and the rendered mined schemes, recorded
/// with the hash-map counting oracle that preceded the partition-product
/// one. Cardinalities 3 and 4 (286 + 715 sets on DBLP, 969 + 3876 on DB2)
/// are pinned by a 64-bit FNV-1a digest of their bit patterns in the same
/// order rather than by thousands of literals.
struct GoldenEntropies {
  std::vector<uint64_t> small;
  uint64_t digest_3;
  uint64_t digest_4;
  uint64_t omega;
  std::vector<std::string> schemes;  // AcyclicScheme::ToString, mined order
};

const GoldenEntropies kDblp5k = {
    // H(X) for every |X| = 1, then every |X| = 2, in ascending bitmask
    // order within a cardinality.
    {
        0x402008010b218f74, 0x3fc07f7885651440, 0x4014da2442b2f341,
        0x3fbe37153d3bb980, 0x4025c33ae308b6b2, 0x4017e4fcc42d8c82,
        0x3fc08b1e12e7ac80, 0x4001b6678b0d80ec, 0x4001ae56ae75af00,
        0x3ff6981b5376b608, 0x3fa24681e4cc0f00, 0x3fbc9e3f681fe280,
        0x3fc1d3b55cba5cc0, 0x4020241fd8f82f5a, 0x40262f81a8ad4510,
        0x40152a5c375f7819, 0x40201bed3d2ccd26, 0x3fcf963f7c25a500,
        0x4015262db30a2947, 0x40287ee1020a168d, 0x4025c33ae308b6b2,
        0x4025c776dfbfb704, 0x4025c960c69d22ca, 0x4025523bfcc34cc9,
        0x4018170195cbda7c, 0x4022ea4551e71f46, 0x401815927fbfc83d,
        0x4025c33ae308b6b2, 0x402025efb8be652a, 0x3fd081cc036bc900,
        0x40153826cac66c47, 0x3fcfa17b39056280, 0x4025c5f05e6105b4,
        0x40182301e77de0c4, 0x402292d8c12e1c65, 0x4002b310245f96c8,
        0x401b1f06282e6f37, 0x40029fc1ced39a08, 0x4025c33ae308b6b2,
        0x401d6adecd036adf, 0x4002b2cf0ac4d478, 0x402286aac91f3592,
        0x4002aaff47c7c4dc, 0x401b6fe1b20c4613, 0x400297b0f23bc820,
        0x4025c33ae308b6b2, 0x401d66d65eb781ea, 0x4002aabe2e2d028c,
        0x4009a4fc99eb9908, 0x4021efc5013ea542, 0x3ff8916c861ae1c0,
        0x401a063350f60d35, 0x3ff86acfdb02e848, 0x4025c33ae308b6b2,
        0x401a35b1dc5a57ee, 0x3ff890ea52e55d28, 0x4005eaa095fc2528,
        0x4005a1cea85185f4, 0x402008b21e69eca2, 0x3fc50fa960abc040,
        0x4014f15311e520ee, 0x3fc3ac1af6453680, 0x4025c827f3081432,
        0x401804a9ccc951d0, 0x3fc390246c724a80, 0x4001fcfc2dc9e900,
        0x4001f4eb51321718, 0x3ff7254498ef8638, 0x40202677bb07c250,
        0x3fcec89adaae2cc0, 0x4015263664be23ac, 0x3fcd663b3de95e00,
        0x4025c33ae308b6b2, 0x40181c659e4a60ab, 0x3fced3bb5fb0cdc0,
        0x400290d3880dead8, 0x400288c2ab7618ec, 0x3ff84cf34d7789e8,
        0x3fc2df6a0d187380, 0x4020241fd8f82f5a, 0x3fc1d3b55cba5cc0,
        0x40152a5c375f7819, 0x3fd0753e29bd76c0, 0x4025c33ae308b6b2,
        0x4018170195cbda7c, 0x3fd12bea6f166d40, 0x4002c853f1d4eb50,
        0x4002c043153d1964, 0x3ff8bbf421058ad0, 0x3fc663e6380108c0,
        0x3fd00e6bd901ba80,
    },
    /*digest_3=*/0x3eed0a0abf70f547,
    /*digest_4=*/0xf5041a3a8b0e159d,
    /*omega=*/0x40287f156fcfecc5,
    {
        "{[Author,Year,School]"
        " | [Author,Publisher,Year,Editor,Pages,BookTitle,Month,Volume,"
        "Journal,Number,Series,ISBN]} sep [Author,Year] j=0.0000",
        "{[Publisher,Pages] | [Pages,BookTitle] | [Pages,Volume]"
        " | [Pages,Journal] | [Pages,Number]"
        " | [Author,Year,Editor,Pages,Month,School] | [Pages,Series]"
        " | [Pages,ISBN]} sep [Pages] j=0.0000",
        "{[Publisher,Pages,BookTitle] | [Publisher,Pages,Volume]"
        " | [Publisher,Pages,Journal] | [Publisher,Pages,Number]"
        " | [Author,Publisher,Year,Editor,Pages,Month,School]"
        " | [Publisher,Pages,Series]"
        " | [Publisher,Pages,ISBN]} sep [Publisher,Pages] j=0.0000",
        "{[Publisher,Year,Pages] | [Year,Pages,BookTitle]"
        " | [Year,Pages,Volume] | [Year,Pages,Journal]"
        " | [Year,Pages,Number]"
        " | [Author,Year,Editor,Pages,Month,School]"
        " | [Year,Pages,Series]"
        " | [Year,Pages,ISBN]} sep [Year,Pages] j=0.0000",
        "{[Publisher,Editor,Pages] | [Editor,Pages,BookTitle]"
        " | [Editor,Pages,Volume] | [Editor,Pages,Journal]"
        " | [Editor,Pages,Number]"
        " | [Author,Year,Editor,Pages,Month,School]"
        " | [Editor,Pages,Series]"
        " | [Editor,Pages,ISBN]} sep [Editor,Pages] j=0.0000",
        "{[Publisher,Pages,BookTitle] | [Pages,BookTitle,Volume]"
        " | [Pages,BookTitle,Journal] | [Pages,BookTitle,Number]"
        " | [Author,Year,Editor,Pages,BookTitle,Month,School]"
        " | [Pages,BookTitle,Series]"
        " | [Pages,BookTitle,ISBN]} sep [Pages,BookTitle] j=0.0000",
        "{[Publisher,Pages,Month] | [Pages,BookTitle,Month]"
        " | [Pages,Month,Volume] | [Pages,Month,Journal]"
        " | [Pages,Month,Number]"
        " | [Author,Year,Editor,Pages,Month,School]"
        " | [Pages,Month,Series]"
        " | [Pages,Month,ISBN]} sep [Pages,Month] j=0.0000",
        "{[Publisher,Pages,Volume] | [Pages,BookTitle,Volume]"
        " | [Pages,Volume,Journal] | [Pages,Volume,Number]"
        " | [Author,Year,Editor,Pages,Month,Volume,School]"
        " | [Pages,Volume,Series]"
        " | [Pages,Volume,ISBN]} sep [Pages,Volume] j=0.0000",
        "{[Publisher,Pages,Journal] | [Pages,BookTitle,Journal]"
        " | [Pages,Volume,Journal] | [Pages,Journal,Number]"
        " | [Author,Year,Editor,Pages,Month,Journal,School]"
        " | [Pages,Journal,Series]"
        " | [Pages,Journal,ISBN]} sep [Pages,Journal] j=0.0000",
        "{[Publisher,Pages,Number] | [Pages,BookTitle,Number]"
        " | [Pages,Volume,Number] | [Pages,Journal,Number]"
        " | [Author,Year,Editor,Pages,Month,Number,School]"
        " | [Pages,Number,Series]"
        " | [Pages,Number,ISBN]} sep [Pages,Number] j=0.0000",
        "{[Publisher,Pages,School] | [Year,Pages,School]"
        " | [Author,Editor,Pages,School] | [Pages,BookTitle,School]"
        " | [Pages,Month,School] | [Pages,Volume,School]"
        " | [Pages,Journal,School] | [Pages,Number,School]"
        " | [Pages,School,Series]"
        " | [Pages,School,ISBN]} sep [Pages,School] j=0.0000",
        "{[Publisher,Pages,Series] | [Pages,BookTitle,Series]"
        " | [Pages,Volume,Series] | [Pages,Journal,Series]"
        " | [Pages,Number,Series]"
        " | [Author,Year,Editor,Pages,Month,School,Series]"
        " | [Pages,Series,ISBN]} sep [Pages,Series] j=0.0000",
        "{[Publisher,ISBN]"
        " | [Author,Year,Editor,Pages,BookTitle,Month,Volume,Journal,Number,"
        "School,Series,ISBN]} sep [ISBN] j=0.0000",
        "{[Publisher,Editor,ISBN]"
        " | [Author,Year,Editor,Pages,BookTitle,Month,Volume,Journal,Number,"
        "School,Series,ISBN]} sep [Editor,ISBN] j=0.0000",
        "{[Publisher,Pages,ISBN] | [Pages,BookTitle,ISBN]"
        " | [Pages,Volume,ISBN] | [Pages,Journal,ISBN]"
        " | [Pages,Number,ISBN]"
        " | [Author,Year,Editor,Pages,Month,School,ISBN]"
        " | [Pages,Series,ISBN]} sep [Pages,ISBN] j=0.0000",
        "{[Publisher,Month,ISBN]"
        " | [Author,Year,Editor,Pages,BookTitle,Month,Volume,Journal,Number,"
        "School,Series,ISBN]} sep [Month,ISBN] j=0.0000",
    },
};

const GoldenEntropies kDb2 = {
    // H(X) for every |X| = 1, then every |X| = 2, in ascending bitmask
    // order within a cardinality.
    {
        0x401335237334db34, 0x4005468ff6e7e968, 0x400994f654f25974,
        0x401335237334db34, 0x40013450d02285d2, 0x400202734631676e,
        0x4001e405655f75f6, 0x3fef706d7f047638, 0x4004ec64cdac6c08,
        0x4000fb8ca8bac672, 0x4000fb8ca8bac672, 0x4000fb8ca8bac672,
        0x3fed9697e2f6c3e8, 0x400e80966f6a70e3, 0x400e80966f6a70e3,
        0x4007bf2a58a904cc, 0x40028110e6072576, 0x4003c27206580696,
        0x4000fb8ca8bac672, 0x401335237334db34, 0x401335237334db34,
        0x400dece622618b1c, 0x401335237334db34, 0x401335237334db34,
        0x401335237334db34, 0x401335237334db34, 0x400cd9ed8cc863bc,
        0x400e6a46e669b667, 0x401335237334db34, 0x401335237334db34,
        0x400db43b85b3ab06, 0x400e6a46e669b667, 0x401335237334db34,
        0x4008ae9cd15aa70a, 0x401335237334db34, 0x400ca142f01a83a5,
        0x400d36dac1ab7fbb, 0x401335237334db34, 0x400ca142f01a83a5,
        0x40090d718ac5d95a, 0x401335237334db34, 0x400a369b9d8de9af,
        0x400c80cf60f5745b, 0x401335237334db34, 0x4006cabdcdacd667,
        0x400693fab5870ca0, 0x4006e7805f938a99, 0x401335237334db34,
        0x400e6a46e669b667, 0x400d574e50d08f06, 0x401335237334db34,
        0x400db43b85b3ab06, 0x400c4824c4479445, 0x400ada267e536734,
        0x40092b411a151b8d, 0x401335237334db34, 0x400e6a46e669b667,
        0x400db43b85b3ab06, 0x401335237334db34, 0x400bed1f13ec8e94,
        0x400b3713b3368334, 0x400adc0e02db7d83, 0x4005e1be5de12de0,
        0x400ca32a74a299f5, 0x401335237334db34, 0x400e6a46e669b667,
        0x400db43b85b3ab06, 0x401335237334db34, 0x400bed1f13ec8e94,
        0x400b3713b3368334, 0x400adc0e02db7d83, 0x4005e1be5de12de0,
        0x400ca32a74a299f5, 0x4000fb8ca8bac672, 0x401335237334db34,
        0x400e6a46e669b667, 0x400db43b85b3ab06, 0x401335237334db34,
        0x400bed1f13ec8e94, 0x400b3713b3368334, 0x400adc0e02db7d83,
        0x4005e1be5de12de0, 0x400ca32a74a299f5, 0x4000fb8ca8bac672,
        0x4000fb8ca8bac672, 0x401335237334db34, 0x400b315d259e4045,
        0x400ad83ef9cb50e4, 0x401335237334db34, 0x40072865917f8025,
        0x4007a6f34b203400, 0x40067705ad5752bb, 0x3ff9074b33e992b4,
        0x4008e92ef2909d71, 0x4000fb8ca8bac672, 0x4000fb8ca8bac672,
        0x4000fb8ca8bac672, 0x4019f7a8568cb06d, 0x4015f7a8568cb06d,
        0x40159ca2a631aabd, 0x4019f7a8568cb06d, 0x4014b9146d4e1c84,
        0x40145e0ebcf316d4, 0x4014308be4c593fb, 0x4011b36412486c28,
        0x4015141a1da92234, 0x400e80966f6a70e3, 0x400e80966f6a70e3,
        0x400e80966f6a70e3, 0x400e80966f6a70e3, 0x4019f7a8568cb06d,
        0x4015f7a8568cb06d, 0x40159ca2a631aabd, 0x4019f7a8568cb06d,
        0x4014b9146d4e1c84, 0x40145e0ebcf316d4, 0x4014308be4c593fb,
        0x4011b36412486c28, 0x4015141a1da92234, 0x400e80966f6a70e3,
        0x400e80966f6a70e3, 0x400e80966f6a70e3, 0x400e80966f6a70e3,
        0x400e80966f6a70e3, 0x401696f24b2bfa62, 0x401296f24b2bfa62,
        0x40123bec9ad0f4b1, 0x401696f24b2bfa62, 0x4011585e61ed6678,
        0x4010fd58b19260c8, 0x4010cfd5d964ddf0, 0x400ca55c0dcf6c3b,
        0x4011b36412486c28, 0x4007bf2a58a904cc, 0x4007bf2a58a904cc,
        0x4007bf2a58a904cc, 0x4007bf2a58a904cc, 0x400e80966f6a70e3,
        0x400e80966f6a70e3, 0x401696f24b2bfa62, 0x4011a2368871d95c,
        0x4011fd3c38ccdf0c, 0x401696f24b2bfa62, 0x401041478b861fd8,
        0x400f87cd8efbe91b, 0x400fb6342d5579d4, 0x40088db6db8c9cee,
        0x401136034e4040de, 0x4007bf2a58a904cc, 0x4007bf2a58a904cc,
        0x4007bf2a58a904cc, 0x4005cd88242bb775, 0x400e80966f6a70e3,
        0x400e80966f6a70e3, 0x4007bf2a58a904cc, 0x401696f24b2bfa62,
        0x4011a2368871d95c, 0x40123bec9ad0f4b1, 0x401696f24b2bfa62,
        0x40107ff7ed8a357e, 0x401063a29f334572, 0x400f8f4d954a70d3,
        0x400a772e6100def9, 0x4010a25301375b18, 0x4007bf2a58a904cc,
        0x4007bf2a58a904cc, 0x4007bf2a58a904cc, 0x4007bf2a58a904cc,
        0x400e80966f6a70e3, 0x400e80966f6a70e3, 0x4007bf2a58a904cc,
        0x4007bf2a58a904cc, 0x401335237334db34, 0x400e6a46e669b667,
        0x400db43b85b3ab06, 0x401335237334db34, 0x400bed1f13ec8e94,
        0x400b3713b3368334, 0x400adc0e02db7d83, 0x4005e1be5de12de0,
        0x400ca32a74a299f5, 0x4000fb8ca8bac672, 0x4000fb8ca8bac672,
        0x4000fb8ca8bac672, 0x4000fb8ca8bac672, 0x400e80966f6a70e3,
        0x400e80966f6a70e3, 0x4007bf2a58a904cc, 0x4007bf2a58a904cc,
        0x4007bf2a58a904cc,
    },
    /*digest_3=*/0x00fcf460b54dc50c,
    /*digest_4=*/0xaa4cc8808cbd6783,
    /*omega=*/0x4019f7a8568cb06d,
    {
        "{[EmpNo,FirstName] | [EmpNo,LastName] | [EmpNo,PhoneNo]"
        " | [EmpNo,HireYear] | [EmpNo,Job] | [EmpNo,EduLevel]"
        " | [EmpNo,Sex] | [EmpNo,BirthYear] | [EmpNo,DeptNo]"
        " | [EmpNo,DeptName] | [EmpNo,MgrNo] | [EmpNo,AdminDepNo]"
        " | [EmpNo,ProjNo,ProjName,RespEmpNo,StartDate,EndDate]"
        " | [EmpNo,MajorProjNo]} sep [EmpNo] j=0.0000",
        "{[EmpNo,FirstName,LastName] | [EmpNo,FirstName,PhoneNo]"
        " | [EmpNo,FirstName,HireYear] | [EmpNo,FirstName,Job]"
        " | [EmpNo,FirstName,EduLevel] | [EmpNo,FirstName,Sex]"
        " | [EmpNo,FirstName,BirthYear] | [EmpNo,FirstName,DeptNo]"
        " | [EmpNo,FirstName,DeptName] | [EmpNo,FirstName,MgrNo]"
        " | [EmpNo,FirstName,AdminDepNo]"
        " | [EmpNo,FirstName,ProjNo,ProjName,RespEmpNo,StartDate,EndDate]"
        " | [EmpNo,FirstName,MajorProjNo]} sep [EmpNo,FirstName] j=0.0000",
        "{[EmpNo,FirstName,LastName] | [EmpNo,LastName,PhoneNo]"
        " | [EmpNo,LastName,HireYear] | [EmpNo,LastName,Job]"
        " | [EmpNo,LastName,EduLevel] | [EmpNo,LastName,Sex]"
        " | [EmpNo,LastName,BirthYear] | [EmpNo,LastName,DeptNo]"
        " | [EmpNo,LastName,DeptName] | [EmpNo,LastName,MgrNo]"
        " | [EmpNo,LastName,AdminDepNo]"
        " | [EmpNo,LastName,ProjNo,ProjName,RespEmpNo,StartDate,EndDate]"
        " | [EmpNo,LastName,MajorProjNo]} sep [EmpNo,LastName] j=0.0000",
        "{[EmpNo,PhoneNo] | [FirstName,PhoneNo] | [LastName,PhoneNo]"
        " | [PhoneNo,HireYear] | [PhoneNo,Job] | [PhoneNo,EduLevel]"
        " | [PhoneNo,Sex] | [PhoneNo,BirthYear] | [PhoneNo,DeptNo]"
        " | [PhoneNo,DeptName] | [PhoneNo,MgrNo] | [PhoneNo,AdminDepNo]"
        " | [PhoneNo,ProjNo,ProjName,RespEmpNo,StartDate,EndDate]"
        " | [PhoneNo,MajorProjNo]} sep [PhoneNo] j=0.0000",
        "{[EmpNo,FirstName,PhoneNo] | [EmpNo,LastName,PhoneNo]"
        " | [EmpNo,PhoneNo,HireYear] | [EmpNo,PhoneNo,Job]"
        " | [EmpNo,PhoneNo,EduLevel] | [EmpNo,PhoneNo,Sex]"
        " | [EmpNo,PhoneNo,BirthYear] | [EmpNo,PhoneNo,DeptNo]"
        " | [EmpNo,PhoneNo,DeptName] | [EmpNo,PhoneNo,MgrNo]"
        " | [EmpNo,PhoneNo,AdminDepNo]"
        " | [EmpNo,PhoneNo,ProjNo,ProjName,RespEmpNo,StartDate,EndDate]"
        " | [EmpNo,PhoneNo,MajorProjNo]} sep [EmpNo,PhoneNo] j=0.0000",
        "{[EmpNo,FirstName,PhoneNo] | [FirstName,LastName,PhoneNo]"
        " | [FirstName,PhoneNo,HireYear] | [FirstName,PhoneNo,Job]"
        " | [FirstName,PhoneNo,EduLevel] | [FirstName,PhoneNo,Sex]"
        " | [FirstName,PhoneNo,BirthYear] | [FirstName,PhoneNo,DeptNo]"
        " | [FirstName,PhoneNo,DeptName] | [FirstName,PhoneNo,MgrNo]"
        " | [FirstName,PhoneNo,AdminDepNo]"
        " | [FirstName,PhoneNo,ProjNo,ProjName,RespEmpNo,StartDate,EndDate]"
        " | [FirstName,PhoneNo,MajorProjNo]} sep [FirstName,PhoneNo] j=0.0000",
        "{[EmpNo,LastName,PhoneNo] | [FirstName,LastName,PhoneNo]"
        " | [LastName,PhoneNo,HireYear] | [LastName,PhoneNo,Job]"
        " | [LastName,PhoneNo,EduLevel] | [LastName,PhoneNo,Sex]"
        " | [LastName,PhoneNo,BirthYear] | [LastName,PhoneNo,DeptNo]"
        " | [LastName,PhoneNo,DeptName] | [LastName,PhoneNo,MgrNo]"
        " | [LastName,PhoneNo,AdminDepNo]"
        " | [LastName,PhoneNo,ProjNo,ProjName,RespEmpNo,StartDate,EndDate]"
        " | [LastName,PhoneNo,MajorProjNo]} sep [LastName,PhoneNo] j=0.0000",
        "{[EmpNo,FirstName,HireYear] | [EmpNo,LastName,HireYear]"
        " | [EmpNo,PhoneNo,HireYear] | [EmpNo,HireYear,Job]"
        " | [EmpNo,HireYear,EduLevel] | [EmpNo,HireYear,Sex]"
        " | [EmpNo,HireYear,BirthYear] | [EmpNo,HireYear,DeptNo]"
        " | [EmpNo,HireYear,DeptName] | [EmpNo,HireYear,MgrNo]"
        " | [EmpNo,HireYear,AdminDepNo]"
        " | [EmpNo,HireYear,ProjNo,ProjName,RespEmpNo,StartDate,EndDate]"
        " | [EmpNo,HireYear,MajorProjNo]} sep [EmpNo,HireYear] j=0.0000",
        "{[FirstName,LastName,HireYear]"
        " | [EmpNo,LastName,PhoneNo,HireYear] | [LastName,HireYear,Job]"
        " | [LastName,HireYear,EduLevel] | [LastName,HireYear,Sex]"
        " | [LastName,HireYear,BirthYear] | [LastName,HireYear,DeptNo]"
        " | [LastName,HireYear,DeptName] | [LastName,HireYear,MgrNo]"
        " | [LastName,HireYear,AdminDepNo]"
        " | [LastName,HireYear,ProjNo,ProjName,RespEmpNo,StartDate,EndDate]"
        " | [LastName,HireYear,MajorProjNo]} sep [LastName,HireYear] j=0.0000",
        "{[EmpNo,PhoneNo,HireYear] | [FirstName,PhoneNo,HireYear]"
        " | [LastName,PhoneNo,HireYear] | [PhoneNo,HireYear,Job]"
        " | [PhoneNo,HireYear,EduLevel] | [PhoneNo,HireYear,Sex]"
        " | [PhoneNo,HireYear,BirthYear] | [PhoneNo,HireYear,DeptNo]"
        " | [PhoneNo,HireYear,DeptName] | [PhoneNo,HireYear,MgrNo]"
        " | [PhoneNo,HireYear,AdminDepNo]"
        " | [PhoneNo,HireYear,ProjNo,ProjName,RespEmpNo,StartDate,EndDate]"
        " | [PhoneNo,HireYear,MajorProjNo]} sep [PhoneNo,HireYear] j=0.0000",
        "{[EmpNo,FirstName,Job] | [EmpNo,LastName,Job]"
        " | [EmpNo,PhoneNo,Job] | [EmpNo,HireYear,Job]"
        " | [EmpNo,Job,EduLevel] | [EmpNo,Job,Sex]"
        " | [EmpNo,Job,BirthYear] | [EmpNo,Job,DeptNo]"
        " | [EmpNo,Job,DeptName] | [EmpNo,Job,MgrNo]"
        " | [EmpNo,Job,AdminDepNo]"
        " | [EmpNo,Job,ProjNo,ProjName,RespEmpNo,StartDate,EndDate]"
        " | [EmpNo,Job,MajorProjNo]} sep [EmpNo,Job] j=0.0000",
        "{[FirstName,Job,EduLevel]"
        " | [EmpNo,FirstName,LastName,PhoneNo,HireYear,Job,Sex,BirthYear,"
        "DeptNo,DeptName,MgrNo,AdminDepNo,ProjNo,ProjName,RespEmpNo,"
        "StartDate,EndDate,MajorProjNo]} sep [FirstName,Job] j=0.0000",
        "{[FirstName,LastName,Job] | [EmpNo,LastName,PhoneNo,Job]"
        " | [LastName,HireYear,Job] | [LastName,Job,EduLevel]"
        " | [LastName,Job,Sex] | [LastName,Job,BirthYear]"
        " | [LastName,Job,DeptNo] | [LastName,Job,DeptName]"
        " | [LastName,Job,MgrNo] | [LastName,Job,AdminDepNo]"
        " | [LastName,Job,ProjNo,ProjName,RespEmpNo,StartDate,EndDate]"
        " | [LastName,Job,MajorProjNo]} sep [LastName,Job] j=0.0000",
        "{[EmpNo,PhoneNo,Job] | [FirstName,PhoneNo,Job]"
        " | [LastName,PhoneNo,Job] | [PhoneNo,HireYear,Job]"
        " | [PhoneNo,Job,EduLevel] | [PhoneNo,Job,Sex]"
        " | [PhoneNo,Job,BirthYear] | [PhoneNo,Job,DeptNo]"
        " | [PhoneNo,Job,DeptName] | [PhoneNo,Job,MgrNo]"
        " | [PhoneNo,Job,AdminDepNo]"
        " | [PhoneNo,Job,ProjNo,ProjName,RespEmpNo,StartDate,EndDate]"
        " | [PhoneNo,Job,MajorProjNo]} sep [PhoneNo,Job] j=0.0000",
        "{[EmpNo,FirstName,EduLevel] | [EmpNo,LastName,EduLevel]"
        " | [EmpNo,PhoneNo,EduLevel] | [EmpNo,HireYear,EduLevel]"
        " | [EmpNo,Job,EduLevel] | [EmpNo,EduLevel,Sex]"
        " | [EmpNo,EduLevel,BirthYear] | [EmpNo,EduLevel,DeptNo]"
        " | [EmpNo,EduLevel,DeptName] | [EmpNo,EduLevel,MgrNo]"
        " | [EmpNo,EduLevel,AdminDepNo]"
        " | [EmpNo,EduLevel,ProjNo,ProjName,RespEmpNo,StartDate,EndDate]"
        " | [EmpNo,EduLevel,MajorProjNo]} sep [EmpNo,EduLevel] j=0.0000",
        "{[EmpNo,PhoneNo,EduLevel] | [FirstName,PhoneNo,EduLevel]"
        " | [LastName,PhoneNo,EduLevel] | [PhoneNo,HireYear,EduLevel]"
        " | [PhoneNo,Job,EduLevel] | [PhoneNo,EduLevel,Sex]"
        " | [PhoneNo,EduLevel,BirthYear] | [PhoneNo,EduLevel,DeptNo]"
        " | [PhoneNo,EduLevel,DeptName] | [PhoneNo,EduLevel,MgrNo]"
        " | [PhoneNo,EduLevel,AdminDepNo]"
        " | [PhoneNo,EduLevel,ProjNo,ProjName,RespEmpNo,StartDate,EndDate]"
        " | [PhoneNo,EduLevel,MajorProjNo]} sep [PhoneNo,EduLevel] j=0.0000",
    },
};

/// Every subset of {0..m-1} with exactly k attributes, ascending bitmask.
std::vector<AttributeSet> SetsOfSize(size_t m, int k) {
  std::vector<AttributeSet> sets;
  for (uint64_t bits = 1; bits < (uint64_t{1} << m); ++bits) {
    if (std::popcount(bits) == k) sets.push_back(AttributeSet(bits));
  }
  return sets;
}

uint64_t DigestBits(const std::vector<double>& hs) {
  uint64_t digest = 1469598103934665603ull;  // FNV-1a, little-endian bytes
  for (double h : hs) {
    const uint64_t u = std::bit_cast<uint64_t>(h);
    for (int byte = 0; byte < 8; ++byte) {
      digest ^= (u >> (8 * byte)) & 0xff;
      digest *= 1099511628211ull;
    }
  }
  return digest;
}

void ExpectGolden(const relation::Relation& rel, const GoldenEntropies& golden,
                  size_t threads) {
  const size_t m = rel.NumAttributes();
  relation::RelationRowSource source(rel);
  EntropyOracleOptions options;
  options.threads = threads;
  EntropyOracle oracle(source, options);
  std::vector<double> small;
  for (int k = 1; k <= 4; ++k) {
    const std::vector<AttributeSet> sets = SetsOfSize(m, k);
    auto hs = oracle.HBatch(sets);
    ASSERT_TRUE(hs.ok()) << hs.status().ToString();
    if (k <= 2) small.insert(small.end(), hs->begin(), hs->end());
    if (k >= 3) {
      EXPECT_EQ(DigestBits(*hs), k == 3 ? golden.digest_3 : golden.digest_4);
    }
  }
  ASSERT_EQ(small.size(), golden.small.size());
  for (size_t i = 0; i < small.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(small[i]), golden.small[i]) << i;
  }
  auto omega = oracle.H(AttributeSet::Full(m));
  ASSERT_TRUE(omega.ok());
  EXPECT_EQ(std::bit_cast<uint64_t>(*omega), golden.omega);

  relation::RelationRowSource mine_source(rel);
  EntropyOracle mine_oracle(mine_source, options);
  auto mined = MineAcyclicSchemes(mine_oracle);
  ASSERT_TRUE(mined.ok()) << mined.status().ToString();
  std::vector<std::string> rendered;
  for (const AcyclicScheme& s : mined->schemes) {
    rendered.push_back(s.ToString(rel.schema()));
  }
  EXPECT_EQ(rendered, golden.schemes);
}

TEST(EntropyOracleGolden, DblpBitsAndSchemesPinnedAtOneAndFourLanes) {
  datagen::DblpOptions dblp;
  dblp.target_tuples = 5000;
  const relation::Relation rel = datagen::GenerateDblp(dblp);
  for (size_t threads : {1u, 4u}) {
    SCOPED_TRACE(threads);
    ExpectGolden(rel, kDblp5k, threads);
  }
}

TEST(EntropyOracleGolden, Db2BitsAndSchemesPinnedAtOneAndFourLanes) {
  auto rel = datagen::Db2Sample::JoinedRelation();
  ASSERT_TRUE(rel.ok());
  for (size_t threads : {1u, 4u}) {
    SCOPED_TRACE(threads);
    ExpectGolden(*rel, kDb2, threads);
  }
}

}  // namespace
}  // namespace limbo::schemes
