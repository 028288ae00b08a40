#ifndef LIMBO_SCHEMES_ENTROPY_ORACLE_H_
#define LIMBO_SCHEMES_ENTROPY_ORACLE_H_

#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "fd/attribute_set.h"
#include "fd/partition.h"
#include "relation/row_source.h"
#include "util/parallel.h"
#include "util/result.h"

namespace limbo::schemes {

/// Shannon entropy (base 2) of a multiset given its exact occurrence
/// counts and total: H = log2(n) - (1/n) * sum c*log2(c). The counts are
/// summed in ascending order after sorting a copy, so the result is
/// bit-identical no matter how the counts were produced or ordered —
/// the determinism anchor for the oracle's 1-lane vs N-lane contract.
/// Zero counts are ignored; an empty or all-zero span returns 0.
double EntropyFromCounts(std::vector<uint64_t> counts, uint64_t total);

struct EntropyOracleOptions {
  /// Lane count for the partition-product work; 0 = DefaultThreadCount().
  size_t threads = 0;
  /// Bound on memoized H(X) entries kept across queries (LRU).
  size_t memo_entries = 4096;
};

/// Computes H(X) — the Shannon entropy of the projection of a relation,
/// read from a RowSource, onto an attribute subset X — for batches of
/// subsets. This is the entropy-over-attribute-sets core that approximate
/// acyclic scheme mining (Kenig et al.) shares with FD-RANK: both reduce
/// to "how concentrated is the distribution of distinct value combinations
/// under X".
///
/// Mechanics: the first batch that needs counting reads the source once,
/// interns every row through relation::RelationBuilder, and keeps only
/// the m single-attribute stripped partitions (fd::StrippedPartition,
/// TANE's substrate). Every H(X) then follows from partition products
/// along X's ascending-attribute prefix chain: π_X = π_{X−a} · π_a for
/// a = X's highest attribute. A batch's missing sets are walked as a
/// prefix trie, depth first: only proper prefixes of requested sets are
/// materialized (at most m live per lane), and a requested set that
/// extends no other is only counted (fd::PartitionProbe). Subtrees under
/// different first attributes fan out over util::ThreadPool at grain 1.
/// H comes from EntropyFromCounts over the non-singleton class sizes;
/// singletons add exactly 0.0 to its sorted sum, so each result is exact
/// and bit-identical at any lane count and any batching. A bounded LRU
/// memo keyed by the subset bitmask absorbs the heavy re-query traffic
/// the miner generates (H(X) is asked for under many separators).
///
/// The oracle borrows `source`, Resets it once and reads it to the end on
/// the first batch that counts; callers must not interleave their own
/// reads with that batch.
class EntropyOracle {
 public:
  EntropyOracle(relation::RowSource& source,
                const EntropyOracleOptions& options = {});

  /// Entropy of one subset. Memoized; H(empty) = 0 without reading.
  util::Result<double> H(fd::AttributeSet x);

  /// Entropies of many subsets (minus whatever the memo already holds),
  /// resolved in one prefix-trie walk. Result order matches `sets`;
  /// duplicate sets are counted once. How sets are split across batches
  /// never changes a result: each is exact and folded independently.
  util::Result<std::vector<double>> HBatch(
      const std::vector<fd::AttributeSet>& sets);

  /// Rows read from the source (0 before the first counting batch).
  uint64_t num_rows() const { return num_rows_; }

  size_t num_attributes() const { return num_attributes_; }

  struct Stats {
    uint64_t passes = 0;        // reads of the source: 1 once loaded
    uint64_t rows_read = 0;     // rows decoded and interned
    uint64_t sets_counted = 0;  // subsets resolved by partition products
    uint64_t memo_hits = 0;     // subsets resolved from the memo
  };
  const Stats& stats() const { return stats_; }

 private:
  /// Reads the source once (no-op afterwards) and builds `singles_`.
  util::Status Load();

  /// Fills `entropies[i]` for the distinct, non-empty, in-schema `sets[i]`.
  void Resolve(const std::vector<fd::AttributeSet>& sets, double* entropies);

  void MemoPut(fd::AttributeSet x, double h);
  bool MemoGet(fd::AttributeSet x, double* h);

  relation::RowSource* source_;
  EntropyOracleOptions options_;
  util::ThreadPool pool_;
  size_t num_attributes_ = 0;
  uint64_t num_rows_ = 0;
  bool loaded_ = false;
  std::vector<fd::StrippedPartition> singles_;  // π_a for every attribute a
  std::vector<fd::PartitionProbe> probes_;      // one per lane
  Stats stats_;

  // LRU memo: map from subset bits to (entropy, position in the recency
  // list); the list front is most recent.
  struct MemoEntry {
    double h = 0.0;
    std::list<uint64_t>::iterator where;
  };
  std::unordered_map<uint64_t, MemoEntry> memo_;
  std::list<uint64_t> memo_order_;
};

}  // namespace limbo::schemes

#endif  // LIMBO_SCHEMES_ENTROPY_ORACLE_H_
