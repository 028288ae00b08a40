#include "core/limbo.h"

#include <algorithm>

#include "core/info.h"
#include "obs/counters.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/strings.h"

namespace limbo::core {

namespace {

DcfTree::Options MakeTreeOptions(const LimboOptions& options,
                                 double threshold) {
  DcfTree::Options tree_options;
  tree_options.branching = options.branching;
  tree_options.threshold = threshold;
  return tree_options;
}

}  // namespace

Phase1Builder::Phase1Builder(const LimboOptions& options, double threshold)
    : tree_(std::make_unique<DcfTree>(MakeTreeOptions(options, threshold))) {}

Phase1Builder::Phase1Builder(const FrozenDcfTree& frozen)
    : tree_(DcfTree::Restore(frozen)) {}

std::vector<Dcf> LimboPhase1(const std::vector<Dcf>& objects,
                             const LimboOptions& options, double threshold) {
  Phase1Builder builder(options, threshold);
  for (const Dcf& object : objects) builder.Insert(object);
  return builder.Leaves();
}

Phase3Assigner::Phase3Assigner(const std::vector<Dcf>& representatives,
                               size_t threads)
    : candidates_(representatives), pool_(threads), kernels_(pool_.threads()) {
  LIMBO_CHECK(!representatives.empty());
}

void Phase3Assigner::AssignChunk(std::span<const Dcf> objects,
                                 uint32_t* labels, double* loss) {
  LIMBO_OBS_COUNT("phase3.objects", objects.size());
  LIMBO_OBS_COUNT("phase3.distance_evals",
                  static_cast<uint64_t>(objects.size()) * candidates_.size());
  // Each object's argmin is independent and writes only its own label /
  // loss cell, so the scan parallelizes with bit-identical results.
  pool_.ParallelFor(0, objects.size(), /*grain=*/64,
                    [&](size_t lo, size_t hi, size_t lane) {
    LossKernel& kernel = kernels_[lane];
    for (size_t i = lo; i < hi; ++i) {
      const NearestCandidate nearest = FindNearestCandidate(
          &kernel, objects[i].p, objects[i].cond, candidates_);
      labels[i] = nearest.index;
      if (loss != nullptr) loss[i] = nearest.loss;
    }
  });
}

util::Status Phase3Assigner::AssignStream(DcfStream& objects,
                                          size_t chunk_size, uint32_t* labels,
                                          double* loss) {
  return ScanChunks(objects, chunk_size,
                    [&](std::span<const Dcf> chunk, size_t base) {
                      AssignChunk(chunk, labels + base,
                                  loss != nullptr ? loss + base : nullptr);
                    });
}

void Phase3Assigner::Flush() { FlushKernelStats(kernels_, "phase3.kernel"); }

util::Result<std::vector<uint32_t>> LimboPhase3(
    const std::vector<Dcf>& objects, const std::vector<Dcf>& representatives,
    std::vector<double>* loss, size_t threads) {
  if (representatives.empty()) {
    return util::Status::InvalidArgument("Phase 3 needs >= 1 representative");
  }
  std::vector<uint32_t> labels(objects.size());
  if (loss != nullptr) loss->assign(objects.size(), 0.0);
  Phase3Assigner assigner(representatives, threads);
  assigner.AssignChunk(objects, labels.data(),
                       loss != nullptr ? loss->data() : nullptr);
  assigner.Flush();
  return labels;
}

util::Result<Phase1Summary> SummarizePhase1(DcfStream& objects,
                                            const LimboOptions& options) {
  const size_t n = objects.size();
  if (n == 0) {
    return util::Status::InvalidArgument("LIMBO needs >= 1 object");
  }
  if (options.phi < 0.0) {
    return util::Status::InvalidArgument("phi must be >= 0");
  }
  Phase1Summary summary;
  // I(V;T) of the raw objects: two scans through the streaming
  // accumulator, bit-identical to MutualInformation over the
  // materialized rows.
  MutualInformationAccumulator info;
  LIMBO_RETURN_IF_ERROR(ScanChunks(
      objects, options.stream_chunk, [&](std::span<const Dcf> chunk, size_t) {
        for (const Dcf& object : chunk) {
          info.AddMarginal(object.p, object.cond);
        }
      }));
  LIMBO_RETURN_IF_ERROR(ScanChunks(
      objects, options.stream_chunk, [&](std::span<const Dcf> chunk, size_t) {
        for (const Dcf& object : chunk) {
          info.AddInformation(object.p, object.cond);
        }
      }));
  summary.mutual_information = info.Value();
  summary.threshold =
      options.phi * summary.mutual_information / static_cast<double>(n);

  Phase1Builder builder(options, summary.threshold);
  if (options.freeze_tree) summary.row_entry_ids.reserve(n);
  LIMBO_RETURN_IF_ERROR(ScanChunks(
      objects, options.stream_chunk, [&](std::span<const Dcf> chunk, size_t) {
        for (const Dcf& object : chunk) {
          const uint32_t entry = builder.Insert(object);
          if (options.freeze_tree) summary.row_entry_ids.push_back(entry);
        }
      }));
  summary.leaves = builder.Leaves();
  summary.tree_stats = builder.stats();
  if (options.freeze_tree) {
    summary.frozen_tree = builder.Freeze();
    summary.has_frozen_tree = true;
  }
  return summary;
}

util::Result<LimboResult> RunLimboStreamed(DcfStream& objects,
                                           const LimboOptions& options) {
  const size_t n = objects.size();
  if (options.k > n) {
    return util::Status::InvalidArgument(
        util::StrFormat("k=%zu exceeds object count %zu", options.k, n));
  }

  LimboResult result;
  LIMBO_OBS_SPAN(limbo_span, "limbo");
  {
    LIMBO_OBS_SPAN(phase1_span, "phase1");
    LIMBO_ASSIGN_OR_RETURN(static_cast<Phase1Summary&>(result),
                           SummarizePhase1(objects, options));
  }

  AibOptions aib_options;
  aib_options.threads = options.threads;
  // Clip k to the Phase-1 leaf count: with fewer leaves than requested
  // clusters the best LIMBO can do is one cluster per leaf (not one big
  // cluster, which a min_k=1 fallback would produce).
  aib_options.min_k =
      options.k > 0 ? std::min(options.k, result.leaves.size()) : 1;
  {
    LIMBO_OBS_SPAN(phase2_span, "phase2");
    LIMBO_ASSIGN_OR_RETURN(result.aib,
                           AgglomerativeIb(result.leaves, aib_options));
  }

  if (options.k > 0) {
    const size_t k = aib_options.min_k;  // clipped to leaf count
    LIMBO_OBS_SPAN(phase3_span, "phase3");
    LIMBO_ASSIGN_OR_RETURN(result.representatives,
                           ClusterDcfsAtK(result.leaves, result.aib, k));
    Phase3Assigner assigner(result.representatives, options.threads);
    result.assignments.resize(n);
    result.assignment_loss.assign(n, 0.0);
    LIMBO_RETURN_IF_ERROR(
        assigner.AssignStream(objects, options.stream_chunk,
                              result.assignments.data(),
                              result.assignment_loss.data()));
    assigner.Flush();
  }
  return result;
}

util::Result<LimboResult> RunLimbo(const std::vector<Dcf>& objects,
                                   const LimboOptions& options) {
  VectorDcfStream stream(objects);
  return RunLimboStreamed(stream, options);
}

}  // namespace limbo::core
