#ifndef LIMBO_CORE_LIMBO_H_
#define LIMBO_CORE_LIMBO_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/aib.h"
#include "core/dcf.h"
#include "core/dcf_stream.h"
#include "core/dcf_tree.h"
#include "util/parallel.h"
#include "util/result.h"

namespace limbo::core {

/// Parameters of a LIMBO run (Section 5.2).
struct LimboOptions {
  /// Accuracy knob φ: Phase-1 merges happen when the information loss does
  /// not exceed φ·I(V;T)/q, q = number of objects. φ = 0.0 merges only
  /// identical objects (LIMBO degenerates to AIB); large φ (≈1) produces a
  /// coarse summary.
  double phi = 0.0;
  /// DCF-tree branching factor B. The paper uses B = 4.
  int branching = 4;
  /// Number of clusters for Phases 2–3; 0 runs Phase 2 down to k = 1 and
  /// skips Phase 3 (useful when the caller wants the whole dendrogram).
  /// Values above the Phase-1 leaf count are clipped to the leaf count.
  size_t k = 0;
  /// Worker lanes for the Phase-2 distance scans and the Phase-3
  /// assignment scan. 0 = LIMBO_THREADS env var / hardware concurrency
  /// (util::DefaultThreadCount), 1 = serial. Every value produces
  /// bit-identical results.
  size_t threads = 0;
  /// Objects pulled per DcfStream chunk in the streamed pipeline (the
  /// I(V;T) passes, the Phase-1 insert scan, and the Phase-3 assignment
  /// scan). A memory knob only — every chunk size yields bit-identical
  /// results; 0 falls back to kDefaultStreamChunk.
  size_t stream_chunk = kDefaultStreamChunk;
  /// When true, the run snapshots the Phase-1 tree (LimboResult::
  /// frozen_tree) and records the leaf-entry id every object landed in
  /// (row_entry_ids) — the state `limbo-tool refit` rehydrates to absorb
  /// new rows without refitting from scratch. Off by default: the
  /// snapshot costs a deep copy of the tree.
  bool freeze_tree = false;
};

/// What Phase 1 makes of an object stream (SummarizePhase1).
struct Phase1Summary {
  /// Mutual information I(V;T) of the input objects (bits).
  double mutual_information = 0.0;
  /// The Phase-1 merge threshold φ·I(V;T)/q actually used, q = number of
  /// objects.
  double threshold = 0.0;
  /// Phase-1 leaf summaries.
  std::vector<Dcf> leaves;
  DcfTree::Stats tree_stats;
  /// Snapshot of the Phase-1 tree after the insert scan (only when
  /// options.freeze_tree). Serialized into the model bundle so refit can
  /// resume incremental insertion.
  bool has_frozen_tree = false;
  FrozenDcfTree frozen_tree;
  /// Per input object, the id of the Phase-1 leaf entry it was absorbed
  /// into (only when options.freeze_tree). Lets refit re-derive labels
  /// for the original rows from an updated tree without the raw data.
  std::vector<uint32_t> row_entry_ids;
};

/// Everything a LIMBO run produces: the Phase-1 summary, then Phases 2-3.
struct LimboResult : Phase1Summary {
  /// Phase-2 agglomerative merge sequence over the leaves.
  AibResult aib{0, {}};
  /// Phase-2 cluster representatives (only when options.k > 0).
  std::vector<Dcf> representatives;
  /// Phase-3 label per input object (only when options.k > 0).
  std::vector<uint32_t> assignments;
  /// Phase-3 information loss of each object's assignment.
  std::vector<double> assignment_loss;
};

/// Incremental Phase 1: insert objects one at a time — from a stream or a
/// vector — and harvest the leaf summaries at the end. Only the DCF tree
/// is resident; this is what makes streamed ingestion bounded-memory.
class Phase1Builder {
 public:
  Phase1Builder(const LimboOptions& options, double threshold);
  /// Rehydrates a builder from a frozen tree snapshot. Further Insert()
  /// calls continue bit-for-bit where the frozen tree left off.
  explicit Phase1Builder(const FrozenDcfTree& frozen);

  /// Inserts one object; returns the stable id of the leaf entry it
  /// landed in (see DcfTree::Insert).
  uint32_t Insert(const Dcf& object) { return tree_->Insert(object); }

  std::vector<Dcf> Leaves() const { return tree_->LeafDcfs(); }
  std::vector<uint32_t> LeafEntryIds() const { return tree_->LeafEntryIds(); }
  FrozenDcfTree Freeze() const { return tree_->Freeze(); }
  const DcfTree::Stats& stats() const { return tree_->stats(); }
  const DcfTree& tree() const { return *tree_; }

 private:
  std::unique_ptr<DcfTree> tree_;
};

/// Chunked Phase 3: the representatives are frozen up front into one
/// CandidateSet (the rows plus the inverted value index of the pruned
/// search), with one LossKernel per lane, and AssignChunk
/// labels any run of objects against them through FindNearestCandidate.
/// Each object's argmin is a pure function of (object, representatives),
/// so chunk boundaries and thread counts never change labels or losses —
/// streamed re-scans are bit-identical to the one-shot vector call. Call
/// Flush once after the last chunk to publish the per-lane kernel
/// counters: `phase3.kernel.loss_calls` counts the δI evaluations the
/// bound could not skip, while `phase3.distance_evals` stays objects ×
/// representatives.
class Phase3Assigner {
 public:
  /// `representatives` must be non-empty.
  Phase3Assigner(const std::vector<Dcf>& representatives, size_t threads);

  /// Labels objects[i] into labels[i] (and its δI into loss[i] when
  /// `loss` is non-null). The output arrays must hold objects.size()
  /// cells.
  void AssignChunk(std::span<const Dcf> objects, uint32_t* labels,
                   double* loss);

  /// AssignChunk over one full scan of `objects` in chunks of
  /// `chunk_size` (0 = kDefaultStreamChunk), then a rewind. The output
  /// arrays must hold objects.size() cells.
  util::Status AssignStream(DcfStream& objects, size_t chunk_size,
                            uint32_t* labels, double* loss);

  /// Publishes the accumulated per-lane kernel counters to the obs
  /// registry ("phase3.kernel"). Call exactly once, after the last chunk.
  void Flush();

 private:
  CandidateSet candidates_;
  util::ThreadPool pool_;
  std::vector<LossKernel> kernels_;
};

/// Phase 1 over a rewindable object stream (Section 5.2), the one place
/// the accuracy knob φ becomes a threshold: two scans for I(V;T) through
/// MutualInformationAccumulator, then threshold = φ·I(V;T)/q and one
/// insert scan with only the DCF tree resident. Exactly three full scans,
/// each ending in a rewind. Reads phi, branching, stream_chunk and
/// freeze_tree from `options`. Fails on an empty stream or a negative φ.
util::Result<Phase1Summary> SummarizePhase1(DcfStream& objects,
                                            const LimboOptions& options);

/// Phase 1 only: builds the DCF tree over `objects` with the given
/// absolute merge `threshold` and returns the leaf summaries. Thin
/// adapter over Phase1Builder.
std::vector<Dcf> LimboPhase1(const std::vector<Dcf>& objects,
                             const LimboOptions& options, double threshold);

/// Phase 3 only: assigns each object to the representative with minimal
/// information loss. Returns labels; per-object losses go to `loss` if
/// non-null. Deterministic: ties pick the lowest representative index,
/// and results are bit-identical for every `threads` value (0 = default
/// lane count, 1 = serial). Thin adapter over Phase3Assigner.
util::Result<std::vector<uint32_t>> LimboPhase3(
    const std::vector<Dcf>& objects, const std::vector<Dcf>& representatives,
    std::vector<double>* loss = nullptr, size_t threads = 0);

/// Full pipeline over a rewindable object stream: SummarizePhase1 (two
/// I(V;T) scans and the insert scan), Phase 2 (AIB on the leaves) and,
/// when options.k > 0, one Phase-3 re-scan that labels every object.
/// Peak memory against a real source is the DCF tree plus one chunk of
/// objects. Results — clusters, losses, and every work counter — are
/// bit-identical to RunLimbo over the materialized vector, at every
/// thread count and chunk size.
util::Result<LimboResult> RunLimboStreamed(DcfStream& objects,
                                           const LimboOptions& options);

/// Full pipeline over a materialized object vector: thin adapter that
/// routes a zero-copy VectorDcfStream through RunLimboStreamed.
util::Result<LimboResult> RunLimbo(const std::vector<Dcf>& objects,
                                   const LimboOptions& options);

}  // namespace limbo::core

#endif  // LIMBO_CORE_LIMBO_H_
