#include "core/horizontal_partition.h"

#include <algorithm>
#include <unordered_set>

#include "core/info.h"
#include "core/tuple_clustering.h"
#include "obs/trace.h"
#include "util/strings.h"

namespace limbo::core {

util::Result<HorizontalPartitionResult> HorizontallyPartitionStream(
    DcfStream& objects, const HorizontalPartitionOptions& options) {
  const size_t n = objects.size();
  if (n == 0) return util::Status::InvalidArgument("relation is empty");
  if (options.min_k < 1 || options.min_k > options.max_k) {
    return util::Status::InvalidArgument("need 1 <= min_k <= max_k");
  }

  LIMBO_OBS_SPAN(partition_span, "horizontal_partition");

  LimboOptions limbo_options;
  limbo_options.phi = options.phi;
  limbo_options.k = 0;  // full dendrogram; we pick k ourselves
  limbo_options.threads = options.threads;
  limbo_options.stream_chunk = options.stream_chunk;
  LIMBO_ASSIGN_OR_RETURN(LimboResult limbo,
                         RunLimboStreamed(objects, limbo_options));

  HorizontalPartitionResult result;
  result.mutual_information = limbo.mutual_information;
  result.num_leaves = limbo.leaves.size();

  // I(C_leaves; V): information still present after Phase 1.
  WeightedRows leaf_rows;
  for (const Dcf& leaf : limbo.leaves) {
    leaf_rows.weights.push_back(leaf.p);
    leaf_rows.rows.push_back(leaf.cond);
  }
  const double leaf_info = MutualInformation(leaf_rows);

  // Per-k statistics from the merge sequence (k descending).
  const auto& merges = limbo.aib.merges();
  const std::vector<double> cluster_entropy =
      limbo.aib.ClusterEntropyPerStep(limbo.leaves);
  const size_t q = limbo.leaves.size();
  const size_t k_hi = std::min(options.max_k, q);
  for (size_t k = k_hi; k >= 1; --k) {
    ClusteringStats s;
    s.k = k;
    // Merge that goes k -> k-1 is merge index (q - k); cumulative loss at
    // k clusters is merges[q - k - 1].cumulative_loss.
    const size_t steps_done = q - k;
    const double cum =
        steps_done == 0 ? 0.0 : merges[steps_done - 1].cumulative_loss;
    s.delta_i = (steps_done < merges.size()) ? merges[steps_done].delta_i : 0.0;
    const double info_k = leaf_info - cum;
    s.info_retained =
        limbo.mutual_information > 0.0 ? info_k / limbo.mutual_information
                                       : 1.0;
    s.cluster_entropy = cluster_entropy[steps_done];
    s.conditional_entropy = s.cluster_entropy - info_k;
    if (s.conditional_entropy < 0.0) s.conditional_entropy = 0.0;
    result.stats.push_back(s);
    if (k == 1) break;
  }

  // Rank candidate ks by the relative δI jump — merging below a natural
  // k costs much more than the merge that reached k. The paper's
  // heuristic yields *candidate* good clusterings for inspection; we
  // surface the ranked list and pick the best when no explicit k given.
  {
    std::vector<std::pair<double, size_t>> scored;
    const size_t lo = std::max<size_t>(options.min_k, 2);
    for (const ClusteringStats& s : result.stats) {
      if (s.k < lo || s.k > k_hi) continue;
      const size_t steps_done = q - s.k;
      const double next_delta =
          steps_done > 0 ? merges[steps_done - 1].delta_i : 0.0;
      scored.push_back({s.delta_i / (next_delta + 1e-12), s.k});
    }
    std::sort(scored.begin(), scored.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    for (const auto& [score, k] : scored) result.candidate_ks.push_back(k);
  }
  size_t chosen = options.k;
  if (chosen == 0) {
    chosen = result.candidate_ks.empty() ? 1 : result.candidate_ks.front();
  }
  chosen = std::min(chosen, q);
  result.chosen_k = chosen;

  // Phase 2 representatives at the chosen k + Phase 3 assignment re-scan
  // (RunLimboStreamed above ran with k = 0, which skips Phase 3).
  {
    LIMBO_OBS_SPAN(phase3_span, "phase3");
    LIMBO_ASSIGN_OR_RETURN(std::vector<Dcf> reps,
                           ClusterDcfsAtK(limbo.leaves, limbo.aib, chosen));
    Phase3Assigner assigner(reps, options.threads);
    result.assignments.resize(n);
    LIMBO_RETURN_IF_ERROR(assigner.AssignStream(
        objects, options.stream_chunk, result.assignments.data(), nullptr));
    assigner.Flush();
  }

  // One statistics re-scan: cluster sizes, distinct-value counts (a tuple
  // object's conditional support is exactly its row's value-id set), and
  // the label-merged cluster DCFs — accumulated in stream order with the
  // first-copy-then-MergeDcf sequence of MergeDcfsByLabel, so the merged
  // DCFs match the materialized path bit for bit.
  result.cluster_sizes.assign(chosen, 0);
  std::vector<std::unordered_set<uint32_t>> values(chosen);
  std::vector<Dcf> assigned(chosen);
  std::vector<bool> seen(chosen, false);
  LIMBO_RETURN_IF_ERROR(ScanChunks(
      objects, options.stream_chunk,
      [&](std::span<const Dcf> chunk, size_t base) {
        for (size_t j = 0; j < chunk.size(); ++j) {
          const Dcf& object = chunk[j];
          const uint32_t c = result.assignments[base + j];
          ++result.cluster_sizes[c];
          for (const auto& e : object.cond.entries()) values[c].insert(e.id);
          if (!seen[c]) {
            assigned[c] = object;
            seen[c] = true;
          } else {
            assigned[c] = MergeDcf(assigned[c], object);
          }
        }
      }));
  result.cluster_value_counts.resize(chosen);
  for (size_t c = 0; c < chosen; ++c) {
    result.cluster_value_counts[c] = values[c].size();
  }

  // Information retained by the final assignment: I(C;V) over the actual
  // Phase-3 clustering of the objects.
  WeightedRows final_rows;
  for (size_t c = 0; c < chosen; ++c) {
    if (assigned[c].p <= 0.0) continue;  // label with no members
    final_rows.weights.push_back(assigned[c].p);
    final_rows.rows.push_back(assigned[c].cond);
  }
  const double final_info = MutualInformation(final_rows);
  result.info_loss_fraction =
      result.mutual_information > 0.0
          ? (result.mutual_information - final_info) /
                result.mutual_information
          : 0.0;
  result.info_loss_vs_leaves =
      leaf_info > 0.0 ? (leaf_info - final_info) / leaf_info : 0.0;
  return result;
}

util::Result<HorizontalPartitionResult> HorizontallyPartition(
    const relation::Relation& rel,
    const HorizontalPartitionOptions& options) {
  if (rel.NumTuples() == 0) {
    return util::Status::InvalidArgument("relation is empty");
  }
  const std::vector<Dcf> objects = BuildTupleObjects(rel);
  VectorDcfStream stream(objects);
  return HorizontallyPartitionStream(stream, options);
}

}  // namespace limbo::core
