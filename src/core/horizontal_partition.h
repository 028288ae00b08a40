#ifndef LIMBO_CORE_HORIZONTAL_PARTITION_H_
#define LIMBO_CORE_HORIZONTAL_PARTITION_H_

#include <vector>

#include "core/dcf_stream.h"
#include "core/limbo.h"
#include "relation/relation.h"
#include "util/result.h"

namespace limbo::core {

struct HorizontalPartitionOptions {
  /// φ_T for the Phase-1 summarization. The paper picks a φ that leaves
  /// on the order of 100 summaries.
  double phi = 0.5;
  /// Number of partitions; 0 chooses k automatically with the δI/δH knee
  /// heuristic of Section 6.1.2.
  size_t k = 0;
  /// Search range for the automatic k (inclusive).
  size_t min_k = 2;
  size_t max_k = 10;
  /// Worker lanes for the clustering hot paths (0 = default lane count,
  /// 1 = serial; results bit-identical).
  size_t threads = 0;
  /// Objects per stream chunk for the scans (memory knob only; every
  /// value is bit-identical). 0 = kDefaultStreamChunk.
  size_t stream_chunk = 0;
};

/// Statistics of the k-clustering, for the paper's "rate of change"
/// heuristic.
struct ClusteringStats {
  size_t k = 0;
  /// δI: information lost by the merge that goes from k to k-1 clusters.
  double delta_i = 0.0;
  /// I(C_k;V) as a fraction of I(T;V) over the leaves.
  double info_retained = 0.0;
  /// H(C_k), entropy of the cluster prior.
  double cluster_entropy = 0.0;
  /// H(C_k | V) = H(C_k) − I(C_k;V).
  double conditional_entropy = 0.0;
};

struct HorizontalPartitionResult {
  size_t chosen_k = 0;
  /// Candidate "natural" k values in [min_k, max_k], best first, ranked
  /// by the relative δI jump — the paper's heuristic surfaces several
  /// good k values for the analyst to inspect; chosen_k is the first.
  std::vector<size_t> candidate_ks;
  /// Stats for k = min(max_k, #leaves) down to 1 (descending k).
  std::vector<ClusteringStats> stats;
  /// Phase-3 cluster label per tuple.
  std::vector<uint32_t> assignments;
  std::vector<size_t> cluster_sizes;
  /// Distinct attribute values occurring in each cluster (Table 4).
  std::vector<size_t> cluster_value_counts;
  /// (I(T;V) − I(C;V)) / I(T;V) after Phase 3: loss relative to the raw
  /// tuple-level information (necessarily large for small k, since
  /// near-unique tuples carry ~log2(n) bits).
  double info_loss_fraction = 0.0;
  /// Loss relative to the Phase-1 summaries, (I_leaves − I(C;V)) /
  /// I_leaves — the accounting that matches the paper's "loss of initial
  /// information after Phase 3 was 9.45%".
  double info_loss_vs_leaves = 0.0;
  double mutual_information = 0.0;
  size_t num_leaves = 0;
};

/// Horizontal partitioning (Section 6.1.2): full LIMBO clustering of the
/// tuples, k picked by the largest relative jump in δI within
/// [min_k, max_k] (merges below a natural k cost disproportionately more),
/// then Phase-3 assignment of every tuple. Thin adapter that routes the
/// materialized tuple objects through HorizontallyPartitionStream.
util::Result<HorizontalPartitionResult> HorizontallyPartition(
    const relation::Relation& rel, const HorizontalPartitionOptions& options);

/// The same partitioning over a rewindable stream of tuple objects
/// (core::TupleObjectStream for bounded-memory ingest): a streamed
/// k = 0 LIMBO run, the choice-of-k heuristic, a Phase-3 re-scan for the
/// labels, and one final scan for the per-cluster statistics (sizes,
/// distinct-value counts from each object's conditional support, and the
/// label-merged DCFs behind the info-loss fractions). Bit-identical to
/// HorizontallyPartition at every thread count and chunk size.
util::Result<HorizontalPartitionResult> HorizontallyPartitionStream(
    DcfStream& objects, const HorizontalPartitionOptions& options);

}  // namespace limbo::core

#endif  // LIMBO_CORE_HORIZONTAL_PARTITION_H_
