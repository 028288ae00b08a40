#ifndef LIMBO_CORE_AIB_H_
#define LIMBO_CORE_AIB_H_

#include <cstdint>
#include <vector>

#include "core/dcf.h"
#include "util/result.h"

namespace limbo::core {

/// One merge step of an agglomerative clustering. Cluster ids follow the
/// scipy-linkage convention: inputs are clusters 0..q-1; the i-th merge
/// creates cluster q+i.
struct Merge {
  uint32_t left;
  uint32_t right;
  uint32_t merged;
  /// Information loss δI(left, right) of this merge (Eq. 3), base-2 bits.
  double delta_i;
  /// Cumulative loss I(V;T) - I(C;T) after this merge.
  double cumulative_loss;
  /// Prior mass p of the merged cluster.
  double p_merged;
};

/// Execution counters of an AgglomerativeIb run, for observability. The
/// eval counter is computed from the dispatch structure (not per-call
/// atomics), so it is exact and identical across thread counts.
struct AibStats {
  /// Number of InformationLoss evaluations (initial matrix + refreshes).
  uint64_t distance_evals = 0;
};

/// Result of a (full or partial) agglomerative IB run.
class AibResult {
 public:
  AibResult(size_t num_objects, std::vector<Merge> merges)
      : num_objects_(num_objects), merges_(std::move(merges)) {}

  size_t num_objects() const { return num_objects_; }
  const std::vector<Merge>& merges() const { return merges_; }

  /// Number of clusters after all recorded merges.
  size_t FinalK() const { return num_objects_ - merges_.size(); }

  /// Labels (0..k-1, ordered by first member) of the original objects in
  /// the k-clustering. k must satisfy FinalK() <= k <= num_objects().
  util::Result<std::vector<uint32_t>> AssignmentsAtK(size_t k) const;

  /// Cumulative information loss at the k-clustering (0 for k = q).
  util::Result<double> LossAtK(size_t k) const;

  /// Entropy H(C_k) of the clustering prior at each k, computed from the
  /// merge masses. Element [0] corresponds to k = q (no merges), element
  /// [i] to k = q - i. Needs the input DCFs to recover leaf masses.
  std::vector<double> ClusterEntropyPerStep(const std::vector<Dcf>& inputs) const;

  const AibStats& stats() const { return stats_; }
  void set_stats(const AibStats& stats) { stats_ = stats; }

 private:
  size_t num_objects_;
  std::vector<Merge> merges_;
  AibStats stats_;
};

/// Options for AgglomerativeIb.
struct AibOptions {
  /// Stop when this many clusters remain (1 = full dendrogram).
  size_t min_k = 1;
  /// Worker lanes for the distance-matrix build and per-merge row
  /// refresh. 0 = LIMBO_THREADS env var / hardware concurrency
  /// (util::DefaultThreadCount), 1 = serial. Results are bit-identical
  /// for every value.
  size_t threads = 0;
};

/// Agglomerative Information Bottleneck (Slonim & Tishby): greedily merges
/// the cluster pair with minimum information loss δI until `min_k` clusters
/// remain. Exact greedy; the distance matrix is the packed strict upper
/// triangle, q(q-1)/2 doubles, and the merge loop scans only the live
/// slots. That memory is still quadratic, so AIB is intended for q up to a
/// few thousand — use Limbo (limbo.h) above that, exactly as the paper
/// prescribes.
///
/// Ties in δI are broken deterministically on *cluster ids*: the pair
/// with the lexicographically smallest (min id, max id) merges first,
/// independent of slot-recycling history and thread count.
util::Result<AibResult> AgglomerativeIb(const std::vector<Dcf>& inputs,
                                        const AibOptions& options = {});

/// Convenience: merged DCFs of the clusters in the k-clustering, in label
/// order produced by AssignmentsAtK.
util::Result<std::vector<Dcf>> ClusterDcfsAtK(const std::vector<Dcf>& inputs,
                                              const AibResult& result,
                                              size_t k);

/// Merges `objects` into k cluster DCFs by label (Eq. 1/2 per member, in
/// object order). Labels must lie in [0, k); a label with no members
/// yields a default (zero-mass, empty) Dcf. Shared by ClusterDcfsAtK and
/// the horizontal-partitioning refinement loop.
util::Result<std::vector<Dcf>> MergeDcfsByLabel(
    const std::vector<Dcf>& objects, const std::vector<uint32_t>& labels,
    size_t k);

}  // namespace limbo::core

#endif  // LIMBO_CORE_AIB_H_
