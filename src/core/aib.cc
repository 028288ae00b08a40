#include "core/aib.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/counters.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/strings.h"

namespace limbo::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Symmetric distance store over cluster *slots*, packed as the strict
/// upper triangle in row-major order: q(q-1)/2 doubles, with cell (i, j),
/// i < j, at i·q - i(i+1)/2 + j - i - 1. Merged clusters reuse the slot
/// of their left input; the right slot is retired.
class SlotMatrix {
 public:
  explicit SlotMatrix(size_t q) : q_(q), d_(q * (q - 1) / 2, 0.0) {}

  double Get(size_t i, size_t j) const { return d_[Index(i, j)]; }
  void Set(size_t i, size_t j, double v) { d_[Index(i, j)] = v; }

  /// Cells (i, i+1), ..., (i, q-1), contiguous.
  double* RowAfter(size_t i) { return d_.data() + i * q_ - i * (i + 1) / 2; }

 private:
  size_t Index(size_t i, size_t j) const {
    if (j < i) std::swap(i, j);
    return i * q_ - i * (i + 1) / 2 + j - i - 1;
  }

  size_t q_;
  std::vector<double> d_;
};

}  // namespace

util::Result<AibResult> AgglomerativeIb(const std::vector<Dcf>& inputs,
                                        const AibOptions& options) {
  const size_t q = inputs.size();
  if (q == 0) {
    return util::Status::InvalidArgument("AIB needs >= 1 input cluster");
  }
  if (options.min_k < 1 || options.min_k > q) {
    return util::Status::InvalidArgument(
        util::StrFormat("min_k=%zu out of range [1, %zu]", options.min_k, q));
  }

  LIMBO_OBS_SPAN(aib_span, "aib");
  util::ThreadPool pool(options.threads);
  AibStats stats;
  // Chunk size for the row-indexed scans below; small enough that the
  // round-robin chunk->lane mapping balances the triangular initial build.
  constexpr size_t kGrain = 16;

  // Per-slot state. slot_cluster_id maps a live slot to its global cluster
  // id (scipy convention); the conditionals live as arena rows (slot_row
  // indexes them) with slot_p alongside.
  DistributionArena arena;
  std::vector<size_t> slot_row(q);
  std::vector<double> slot_p(q);
  size_t total_entries = 0;
  for (const Dcf& in : inputs) total_entries += in.cond.SupportSize();
  // Merged rows append behind the inputs; 2x covers the whole dendrogram
  // in the common case without a mid-run realloc.
  arena.ReserveEntries(total_entries * 2);
  for (size_t i = 0; i < q; ++i) {
    slot_p[i] = inputs[i].p;
    slot_row[i] = arena.Append(inputs[i].cond);
  }
  // One δI kernel per lane: the static chunk->lane mapping means each
  // kernel sees the same rows on every run, so results stay bit-identical
  // at any thread count.
  std::vector<LossKernel> kernels(pool.threads());

  std::vector<uint32_t> slot_cluster_id(q);
  for (size_t i = 0; i < q; ++i) slot_cluster_id[i] = static_cast<uint32_t>(i);
  // The slots still holding a cluster, ascending. Every scan below walks
  // this list, so the merge loop never visits a retired slot.
  std::vector<size_t> live_slots(q);
  for (size_t i = 0; i < q; ++i) live_slots[i] = i;

  SlotMatrix dist(q);
  // Nearest-neighbour cache: nn[i] = best partner slot for slot i.
  std::vector<size_t> nn(q, SIZE_MAX);
  std::vector<double> nn_dist(q, kInf);

  // Equal distances tie-break on *cluster ids*, never slot indices: after
  // merges recycle slots, slot order and cluster-id order disagree, and
  // only the latter matches the documented (and global-selection) order.
  auto recompute_nn = [&](size_t i) {
    nn[i] = SIZE_MAX;
    nn_dist[i] = kInf;
    for (size_t j : live_slots) {
      if (j == i) continue;
      const double d = dist.Get(i, j);
      if (d < nn_dist[i] ||
          (d == nn_dist[i] &&
           (nn[i] == SIZE_MAX ||
            slot_cluster_id[j] < slot_cluster_id[nn[i]]))) {
        nn_dist[i] = d;
        nn[i] = j;
      }
    }
  };

  // Initial pairwise matrix and NN cache. Every (i, j) writes cells owned
  // by that pair alone, so the static partition is bit-deterministic.
  LIMBO_OBS_SPAN(build_span, "matrix_build");
  pool.ParallelFor(0, q, kGrain, [&](size_t lo, size_t hi, size_t lane) {
    LossKernel& kernel = kernels[lane];
    for (size_t i = lo; i < hi; ++i) {
      kernel.SetObject(slot_p[i], arena.Row(slot_row[i]));
      double* row = dist.RowAfter(i);
      for (size_t j = i + 1; j < q; ++j) {
        *row++ = kernel.Loss(slot_p[j], arena.Row(slot_row[j]));
      }
    }
  });
  pool.ParallelFor(0, q, kGrain, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) recompute_nn(i);
  });
  stats.distance_evals += static_cast<uint64_t>(q) * (q - 1) / 2;
  build_span.Stop();

  LIMBO_OBS_SPAN(merge_span, "merge_loop");
  std::vector<Merge> merges;
  merges.reserve(q - options.min_k);
  double cumulative = 0.0;
  uint32_t next_cluster_id = static_cast<uint32_t>(q);

  while (live_slots.size() > options.min_k) {
    // Pick the globally best pair; equal distances break on the
    // lexicographically smallest (min cluster id, max cluster id) pair.
    size_t best_i = SIZE_MAX;
    double best_d = kInf;
    uint32_t best_lo = 0;
    uint32_t best_hi = 0;
    for (size_t i : live_slots) {
      if (nn[i] == SIZE_MAX) continue;
      const double d = nn_dist[i];
      const uint32_t lo =
          std::min(slot_cluster_id[i], slot_cluster_id[nn[i]]);
      const uint32_t hi =
          std::max(slot_cluster_id[i], slot_cluster_id[nn[i]]);
      if (d < best_d ||
          (d == best_d &&
           (best_i == SIZE_MAX || lo < best_lo ||
            (lo == best_lo && hi < best_hi)))) {
        best_d = d;
        best_i = i;
        best_lo = lo;
        best_hi = hi;
      }
    }
    LIMBO_CHECK(best_i != SIZE_MAX);
    // Orient the pair by cluster id so the recorded merge and the slot
    // the result lands in are independent of which side found it.
    size_t a = best_i;
    size_t b = nn[best_i];
    if (slot_cluster_id[b] < slot_cluster_id[a]) std::swap(a, b);
    LIMBO_CHECK(a != b);

    const double delta = dist.Get(a, b);
    cumulative += delta;
    // Merge per Eq. 1/2: the merged conditional goes straight into arena
    // scratch with the same per-entry arithmetic as MergeDcf/WeightedMerge.
    double p_merged = slot_p[a] + slot_p[b];
    if (p_merged <= 0.0) {
      p_merged = 0.0;
      slot_row[a] = arena.Append(DistributionView{});
    } else {
      slot_row[a] = arena.AppendMerge(slot_p[a] / p_merged, slot_row[a],
                                      slot_p[b] / p_merged, slot_row[b]);
    }
    slot_p[a] = p_merged;
    merges.push_back(Merge{slot_cluster_id[a], slot_cluster_id[b],
                           next_cluster_id, delta, cumulative, p_merged});

    // The merged cluster takes slot a; slot b dies.
    slot_cluster_id[a] = next_cluster_id++;
    live_slots.erase(
        std::lower_bound(live_slots.begin(), live_slots.end(), b));
    const size_t live = live_slots.size();

    // Refresh distances from the merged slot and fix stale NN entries.
    // Each j owns its dist cells and nn/nn_dist slots, so both scans are
    // safely data-parallel and bit-identical to the serial order. The
    // per-merge tag lets each lane scatter the merged row at most once.
    const uint64_t refresh_tag = next_cluster_id;
    pool.ParallelFor(0, live, kGrain, [&](size_t lo, size_t hi, size_t lane) {
      LossKernel& kernel = kernels[lane];
      kernel.SetObject(slot_p[a], arena.Row(slot_row[a]), refresh_tag);
      for (size_t k = lo; k < hi; ++k) {
        const size_t j = live_slots[k];
        if (j == a) continue;
        dist.Set(a, j, kernel.Loss(slot_p[j], arena.Row(slot_row[j])));
      }
    });
    stats.distance_evals += live - 1;
    recompute_nn(a);
    pool.ParallelFor(0, live, kGrain, [&](size_t lo, size_t hi) {
      // NN-cache economics per surviving slot: a full recompute_nn is a
      // miss, keeping or cheaply lowering the cached partner is a hit.
      // Both totals depend only on the merge sequence, not thread count.
      uint64_t hits = 0;
      uint64_t misses = 0;
      for (size_t k = lo; k < hi; ++k) {
        const size_t j = live_slots[k];
        if (j == a) continue;
        if (nn[j] == a || nn[j] == b) {
          recompute_nn(j);
          ++misses;
        } else {
          if (dist.Get(a, j) < nn_dist[j]) {
            // Strict < keeps the incumbent on ties: the merged cluster has
            // the largest id, so cluster-id order agrees.
            nn[j] = a;
            nn_dist[j] = dist.Get(a, j);
          }
          ++hits;
        }
      }
      LIMBO_OBS_COUNT("aib.nn_cache.hits", hits);
      LIMBO_OBS_COUNT("aib.nn_cache.misses", misses);
    });
  }
  merge_span.Stop();

  AibResult result(q, std::move(merges));
  LIMBO_OBS_COUNT("aib.inputs", q);
  LIMBO_OBS_COUNT("aib.merges", result.merges().size());
  LIMBO_OBS_COUNT("aib.distance_evals", stats.distance_evals);
  FlushKernelStats(kernels, "aib.kernel");
  result.set_stats(stats);
  return result;
}

util::Result<std::vector<uint32_t>> AibResult::AssignmentsAtK(size_t k) const {
  if (k < FinalK() || k > num_objects_) {
    return util::Status::OutOfRange(
        util::StrFormat("k=%zu out of range [%zu, %zu]", k, FinalK(),
                        num_objects_));
  }
  // Union-find over cluster ids, replaying the first (q - k) merges.
  const size_t steps = num_objects_ - k;
  std::vector<uint32_t> parent(num_objects_ + steps);
  for (size_t i = 0; i < parent.size(); ++i) {
    parent[i] = static_cast<uint32_t>(i);
  }
  for (size_t s = 0; s < steps; ++s) {
    parent[merges_[s].left] = merges_[s].merged;
    parent[merges_[s].right] = merges_[s].merged;
  }
  auto find_root = [&](uint32_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  std::vector<uint32_t> labels(num_objects_);
  std::vector<int64_t> root_to_label(parent.size(), -1);
  uint32_t next_label = 0;
  for (size_t i = 0; i < num_objects_; ++i) {
    const uint32_t root = find_root(static_cast<uint32_t>(i));
    if (root_to_label[root] < 0) root_to_label[root] = next_label++;
    labels[i] = static_cast<uint32_t>(root_to_label[root]);
  }
  LIMBO_CHECK(next_label == k);
  return labels;
}

util::Result<double> AibResult::LossAtK(size_t k) const {
  if (k < FinalK() || k > num_objects_) {
    return util::Status::OutOfRange(
        util::StrFormat("k=%zu out of range [%zu, %zu]", k, FinalK(),
                        num_objects_));
  }
  const size_t steps = num_objects_ - k;
  return steps == 0 ? 0.0 : merges_[steps - 1].cumulative_loss;
}

std::vector<double> AibResult::ClusterEntropyPerStep(
    const std::vector<Dcf>& inputs) const {
  LIMBO_CHECK(inputs.size() == num_objects_);
  // Track cluster masses as merges are applied; entropy updated
  // incrementally: merging masses x and y changes H(C) by
  //   +x log x + y log y - (x+y) log(x+y)  (all divided into bits).
  auto plogp = [](double x) {
    return x > 0.0 ? x * std::log2(x) : 0.0;
  };
  std::vector<double> mass(num_objects_ + merges_.size(), 0.0);
  double h = 0.0;
  for (size_t i = 0; i < num_objects_; ++i) {
    mass[i] = inputs[i].p;
    h -= plogp(inputs[i].p);
  }
  std::vector<double> out;
  out.reserve(merges_.size() + 1);
  out.push_back(h);
  for (const Merge& m : merges_) {
    const double x = mass[m.left];
    const double y = mass[m.right];
    mass[m.merged] = x + y;
    h += plogp(x) + plogp(y) - plogp(x + y);
    out.push_back(h);
  }
  return out;
}

util::Result<std::vector<Dcf>> ClusterDcfsAtK(const std::vector<Dcf>& inputs,
                                              const AibResult& result,
                                              size_t k) {
  LIMBO_ASSIGN_OR_RETURN(std::vector<uint32_t> labels,
                         result.AssignmentsAtK(k));
  if (inputs.size() != labels.size()) {
    return util::Status::InvalidArgument("inputs/result size mismatch");
  }
  return MergeDcfsByLabel(inputs, labels, k);
}

util::Result<std::vector<Dcf>> MergeDcfsByLabel(
    const std::vector<Dcf>& objects, const std::vector<uint32_t>& labels,
    size_t k) {
  if (objects.size() != labels.size()) {
    return util::Status::InvalidArgument("objects/labels size mismatch");
  }
  std::vector<Dcf> clusters(k);
  std::vector<bool> seen(k, false);
  for (size_t i = 0; i < objects.size(); ++i) {
    const uint32_t label = labels[i];
    if (label >= k) {
      return util::Status::InvalidArgument(
          util::StrFormat("label %u out of range [0, %zu)", label, k));
    }
    if (!seen[label]) {
      clusters[label] = objects[i];
      seen[label] = true;
    } else {
      clusters[label] = MergeDcf(clusters[label], objects[i]);
    }
  }
  return clusters;
}

}  // namespace limbo::core
