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
constexpr uint32_t kNoSlot = UINT32_MAX;
// The cluster id of a retired slot, and of "no cluster": no posting
// carries it, so every posting a retired slot left behind reads dead.
constexpr uint32_t kRetired = UINT32_MAX;
constexpr uint32_t kSparse = UINT32_MAX;
// A value that more than this share of the inputs hold is dense: a walk
// reads the short list of live slots that lack it instead of its long
// postings list. The share changes work, never results.
constexpr double kDenseShare = 0.5;

/// A posting of the live-slot value index: `slot` holds (or held)
/// `cluster`, whose conditional has `mass` on the value, rounded up to a
/// float. It is live while the slot still holds that cluster.
struct Posting {
  uint32_t slot;
  uint32_t cluster;
  float mass;
};

/// An entry of a dense value's complement list: `slot`, holding
/// `cluster`, lacks the value. Live under the same rule as a posting.
struct Absence {
  uint32_t slot;
  uint32_t cluster;
};

/// Per-slot sums of one walk (see AibRun::Walk).
struct Shared {
  double object = 0.0;
  double candidate = 0.0;
};

/// A slot's bound inputs, plus its mass on the dense values.
struct SlotSide {
  BoundSide side;
  double dense_mass = 0.0;
};

/// The (δI, cluster id) minimum of a nearest-neighbour search.
struct Nearest {
  double loss = kInf;
  uint32_t slot = kNoSlot;
  uint32_t cluster = kRetired;

  void Offer(double d, uint32_t s, uint32_t c) {
    if (d < loss || (d == loss && c < cluster)) {
      loss = d;
      slot = s;
      cluster = c;
    }
  }
};

/// One lane's scratch, O(q). `row` is the kernel whose object is the row
/// being searched (or the merged cluster), set lazily; `pair` scores the
/// pairs whose orientation makes the other side the object.
struct Lane {
  LossKernel* row = nullptr;
  LossKernel* pair = nullptr;
  uint32_t row_cluster = kRetired;  // the cluster `row` holds
  std::vector<Shared> shared;
  std::vector<double> bound;
};

/// The state of one AgglomerativeIb run: the slots (the inputs, then the
/// merged clusters in the slot of their lower-id input), the live-slot
/// value index, and each live row's nearest neighbour.
class AibRun {
 public:
  AibRun(const std::vector<Dcf>& inputs, size_t lanes);

  /// Merges down to `min_k` clusters; fills the merges and `stats`.
  std::vector<Merge> Run(size_t min_k, util::ThreadPool& pool,
                         AibStats* stats);

 private:
  using Entry = SparseDistribution::Entry;

  /// Accumulates, for every live slot c in [lo, hi), the shared masses of
  /// slot o's row with c's through the index, and returns o's mass on its
  /// dense values. Afterwards, with D = that return value,
  ///   sh_o(c) = shared[c].object + D,
  ///   sh_c(c) = shared[c].candidate + dense_mass(c).
  /// A sparse value of o adds through its postings; a dense value o holds
  /// subtracts o's mass from the slots in its complement list; a dense
  /// value o lacks subtracts each holder's mass through its postings. Each
  /// slot's sums are added in o's entry order, then in dense-value order,
  /// whatever the range, so bounds do not depend on how slots are split.
  double Walk(uint32_t o, uint32_t lo, uint32_t hi, Shared* shared) const;

  double Bound(uint32_t o, double dense_total, uint32_t c,
               const Shared& shared) const {
    return LossLowerBound(slots_[o].side, shared.object + dense_total,
                          slots_[c].side,
                          shared.candidate + slots_[c].dense_mass);
  }

  /// δI of slots x and c in the orientation of the full-matrix
  /// formulation (tests/reference/per_pair.h), since δI is not
  /// bit-symmetric: the newer cluster is the kernel object, and between
  /// two inputs the lower id is.
  double Score(uint32_t x, uint32_t c, Lane& lane) const;

  /// The exact nearest neighbour of slot i among the live slots: scores
  /// the smallest-bound slot, then every slot whose bound is <= the
  /// running best. Leaves row i fresh.
  void SearchRow(uint32_t i, Lane& lane);

  /// The slot whose row holds the (δI, lower id, higher id) minimum over
  /// all live pairs. Stale rows whose bound reaches the best fresh key
  /// are rescanned first, one row per lane.
  uint32_t Select(util::ThreadPool& pool, uint64_t* rescans);

  /// After slot a took the merged cluster and slot b was retired: bounds
  /// the merged row against every live slot in one walk, split across
  /// lanes by contiguous runs of live slots; marks the rows whose
  /// neighbour merged away stale; scores δI(merged, k) only where the
  /// bound is below row k's distance; then finds the merged row's own
  /// nearest neighbour from the same bounds.
  void Refresh(uint32_t a, uint32_t b, util::ThreadPool& pool);

  /// Posts slot s's cluster in the index, overwriting the postings and
  /// complement entries a previous cluster of the slot left in place or
  /// inserting new ones in slot order.
  void Post(uint32_t s);

  /// Drops the dead postings and complement entries once they outnumber
  /// the live ones.
  void MaybeCompact();

  bool Live(uint32_t slot, uint32_t cluster) const {
    return cluster_[slot] == cluster;
  }

  size_t q_;
  DistributionArena arena_;
  std::vector<size_t> row_;       // slot -> arena row
  std::vector<SlotSide> slots_;   // slot -> bound inputs
  std::vector<uint32_t> cluster_; // slot -> cluster id (kRetired)
  std::vector<uint32_t> live_;    // live slots, ascending

  // The index over dense value ids (the ranks of the inputs' ids; the
  // arena rows carry them, which the kernel's bits do not depend on).
  std::vector<std::vector<Posting>> postings_;  // by value, slot order
  std::vector<uint32_t> dense_of_;      // value -> dense index, or kSparse
  std::vector<uint32_t> dense_values_;  // ascending
  std::vector<std::vector<Absence>> absences_;  // by dense index
  size_t postings_total_ = 0;
  size_t postings_live_ = 0;

  // Each live row's nearest neighbour. A fresh row's is exact; a stale
  // row's neighbour merged away and nn_dist_ is only a lower bound.
  std::vector<uint32_t> nn_;
  std::vector<double> nn_dist_;
  std::vector<uint8_t> stale_;
  // The refresh's bounds and scores of the merged row (NaN: not scored).
  std::vector<double> merged_bound_;
  std::vector<double> merged_loss_;

  std::vector<LossKernel> kernels_;  // two per lane
  std::vector<Lane> lanes_;
  std::vector<uint32_t> batch_;  // stale rows to rescan
};

AibRun::AibRun(const std::vector<Dcf>& inputs, size_t lanes)
    : q_(inputs.size()),
      row_(q_),
      slots_(q_),
      cluster_(q_),
      live_(q_),
      nn_(q_, kNoSlot),
      nn_dist_(q_, kInf),
      stale_(q_, 0),
      merged_bound_(q_, 0.0),
      merged_loss_(q_, 0.0),
      kernels_(2 * lanes),
      lanes_(lanes) {
  // Dense remap of the value ids: order-preserving, so every row stays
  // sorted and every δI keeps its bits.
  std::vector<uint32_t> ids;
  size_t total_entries = 0;
  for (const Dcf& in : inputs) total_entries += in.cond.SupportSize();
  ids.reserve(total_entries);
  for (const Dcf& in : inputs) {
    for (const Entry& e : in.cond.entries()) ids.push_back(e.id);
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  // Merged rows append behind the inputs; 2x covers the whole dendrogram
  // in the common case without a mid-run realloc.
  arena_.ReserveEntries(total_entries * 2);
  std::vector<uint32_t> holders(ids.size(), 0);
  std::vector<Entry> remapped;
  for (size_t i = 0; i < q_; ++i) {
    remapped.clear();
    for (const Entry& e : inputs[i].cond.entries()) {
      const uint32_t v = static_cast<uint32_t>(
          std::lower_bound(ids.begin(), ids.end(), e.id) - ids.begin());
      remapped.push_back({v, e.mass});
    }
    row_[i] = arena_.Append(DistributionView(remapped, nullptr));
    for (const Entry& e : arena_.Row(row_[i]).entries) ++holders[e.id];
    const double p = inputs[i].p;
    slots_[i].side.p = p;
    slots_[i].side.log2_p = p > 0.0 ? std::log2(p) : 0.0;
    cluster_[i] = static_cast<uint32_t>(i);
    live_[i] = static_cast<uint32_t>(i);
  }
  postings_.resize(ids.size());
  dense_of_.assign(ids.size(), kSparse);
  for (uint32_t v = 0; v < ids.size(); ++v) {
    if (holders[v] > kDenseShare * static_cast<double>(q_)) {
      dense_of_[v] = static_cast<uint32_t>(dense_values_.size());
      dense_values_.push_back(v);
    }
  }
  absences_.resize(dense_values_.size());
  for (uint32_t s = 0; s < q_; ++s) Post(s);
  for (size_t l = 0; l < lanes; ++l) {
    lanes_[l].row = &kernels_[2 * l];
    lanes_[l].pair = &kernels_[2 * l + 1];
    lanes_[l].shared.resize(q_);
    lanes_[l].bound.resize(q_);
  }
}

void AibRun::Post(uint32_t s) {
  const uint32_t cluster = cluster_[s];
  const auto slot_less = [](const auto& x, uint32_t slot) {
    return x.slot < slot;
  };
  const DistributionView row = arena_.Row(row_[s]);
  double mass = 0.0;
  double dense_mass = 0.0;
  for (const Entry& e : row.entries) {
    mass += e.mass;
    const Posting posting{s, cluster, FloatAtLeast(e.mass)};
    std::vector<Posting>& list = postings_[e.id];
    auto it = std::lower_bound(list.begin(), list.end(), s, slot_less);
    if (it != list.end() && it->slot == s) {
      *it = posting;  // the dead posting of the slot's previous cluster
    } else {
      list.insert(it, posting);
      ++postings_total_;
    }
    if (dense_of_[e.id] != kSparse) dense_mass += posting.mass;
  }
  postings_live_ += row.entries.size();
  size_t k = 0;
  for (size_t d = 0; d < dense_values_.size(); ++d) {
    const uint32_t v = dense_values_[d];
    while (k < row.entries.size() && row.entries[k].id < v) ++k;
    if (k < row.entries.size() && row.entries[k].id == v) continue;
    std::vector<Absence>& list = absences_[d];
    auto it = std::lower_bound(list.begin(), list.end(), s, slot_less);
    if (it != list.end() && it->slot == s) {
      *it = {s, cluster};
    } else {
      list.insert(it, {s, cluster});
    }
  }
  slots_[s].side.mass = std::min(1.0, mass);
  slots_[s].dense_mass = dense_mass;
}

void AibRun::MaybeCompact() {
  if (postings_total_ - postings_live_ <= postings_live_) return;
  for (std::vector<Posting>& list : postings_) {
    std::erase_if(list, [this](const Posting& x) {
      return !Live(x.slot, x.cluster);
    });
  }
  for (std::vector<Absence>& list : absences_) {
    std::erase_if(list, [this](const Absence& x) {
      return !Live(x.slot, x.cluster);
    });
  }
  postings_total_ = postings_live_;
}

double AibRun::Walk(uint32_t o, uint32_t lo, uint32_t hi,
                    Shared* shared) const {
  const auto range = [lo, hi, this](const auto& list) {
    const auto slot_less = [](const auto& x, uint32_t slot) {
      return x.slot < slot;
    };
    auto begin = lo == 0 ? list.begin()
                         : std::lower_bound(list.begin(), list.end(), lo,
                                            slot_less);
    auto end = hi >= q_ ? list.end()
                        : std::lower_bound(begin, list.end(), hi, slot_less);
    return std::span(begin, end);
  };
  const std::span<const Entry> entries = arena_.Row(row_[o]).entries;
  double dense_total = 0.0;
  for (const Entry& e : entries) {
    const uint32_t d = dense_of_[e.id];
    if (d == kSparse) {
      for (const Posting& x : range(postings_[e.id])) {
        if (!Live(x.slot, x.cluster)) continue;
        shared[x.slot].object += e.mass;
        shared[x.slot].candidate += x.mass;
      }
    } else {
      dense_total += e.mass;
      for (const Absence& x : range(absences_[d])) {
        if (Live(x.slot, x.cluster)) shared[x.slot].object -= e.mass;
      }
    }
  }
  size_t k = 0;
  for (const uint32_t v : dense_values_) {
    while (k < entries.size() && entries[k].id < v) ++k;
    if (k < entries.size() && entries[k].id == v) continue;
    for (const Posting& x : range(postings_[v])) {
      if (Live(x.slot, x.cluster)) shared[x.slot].candidate -= x.mass;
    }
  }
  return dense_total;
}

double AibRun::Score(uint32_t x, uint32_t c, Lane& lane) const {
  const uint32_t cx = cluster_[x];
  const uint32_t cc = cluster_[c];
  const bool x_is_object = (cx < q_ && cc < q_) ? cx < cc : cx > cc;
  if (!x_is_object) {
    lane.pair->SetObject(slots_[c].side.p, arena_.Row(row_[c]));
    return lane.pair->Loss(slots_[x].side.p, arena_.Row(row_[x]));
  }
  if (lane.row_cluster != cx) {
    lane.row->SetObject(slots_[x].side.p, arena_.Row(row_[x]));
    lane.row_cluster = cx;
  }
  return lane.row->Loss(slots_[c].side.p, arena_.Row(row_[c]));
}

void AibRun::SearchRow(uint32_t i, Lane& lane) {
  const double dense_total = Walk(i, 0, kNoSlot, lane.shared.data());
  uint32_t first = kNoSlot;
  for (const uint32_t c : live_) {
    if (c != i) {
      lane.bound[c] = Bound(i, dense_total, c, lane.shared[c]);
      if (first == kNoSlot || lane.bound[c] < lane.bound[first]) first = c;
    }
    lane.shared[c] = {};
  }
  Nearest best;
  best.Offer(Score(i, first, lane), first, cluster_[first]);
  for (const uint32_t c : live_) {
    if (c != i && c != first && lane.bound[c] <= best.loss) {
      best.Offer(Score(i, c, lane), c, cluster_[c]);
    }
  }
  nn_[i] = best.slot;
  nn_dist_[i] = best.loss;
  stale_[i] = 0;
}

uint32_t AibRun::Select(util::ThreadPool& pool, uint64_t* rescans) {
  // Fresh rows compete on (δI, lower cluster id, higher cluster id).
  struct Key {
    double loss = kInf;
    uint32_t lo = kRetired;
    uint32_t hi = kRetired;
    uint32_t slot = kNoSlot;
  };
  Key best;
  const auto offer = [&](uint32_t i) {
    const uint32_t lo = std::min(cluster_[i], cluster_[nn_[i]]);
    const uint32_t hi = std::max(cluster_[i], cluster_[nn_[i]]);
    const double d = nn_dist_[i];
    if (d < best.loss ||
        (d == best.loss && (lo < best.lo || (lo == best.lo && hi < best.hi)))) {
      best = {d, lo, hi, i};
    }
  };
  double stale_min = kInf;
  for (const uint32_t i : live_) {
    if (stale_[i]) {
      stale_min = std::min(stale_min, nn_dist_[i]);
    } else {
      offer(i);
    }
  }
  if (stale_min <= best.loss) {
    // A stale row whose bound reaches the best fresh key may hold a
    // better pair (stale rows win ties): rescan every such row, then the
    // best key is the global minimum, since every row left stale has a
    // bound above it.
    LIMBO_OBS_SPAN(rescan_span, "rescan");
    batch_.clear();
    for (const uint32_t i : live_) {
      if (stale_[i] && nn_dist_[i] <= best.loss) batch_.push_back(i);
    }
    pool.ParallelFor(0, batch_.size(), 1,
                     [&](size_t lo, size_t hi, size_t lane) {
                       for (size_t r = lo; r < hi; ++r) {
                         SearchRow(batch_[r], lanes_[lane]);
                       }
                     });
    *rescans += batch_.size();
    for (const uint32_t i : batch_) offer(i);
  }
  LIMBO_CHECK(best.slot != kNoSlot);
  return best.slot;
}

void AibRun::Refresh(uint32_t a, uint32_t b, util::ThreadPool& pool) {
  const size_t live = live_.size();
  const size_t runs = std::min(lanes_.size(), live);
  pool.ParallelFor(0, runs, 1, [&](size_t lo, size_t hi, size_t lane_id) {
    Lane& lane = lanes_[lane_id];
    for (size_t r = lo; r < hi; ++r) {
      const size_t first = live * r / runs;
      const size_t last = live * (r + 1) / runs;
      const double dense_total = Walk(a, live_[first], live_[last - 1] + 1,
                                      lane.shared.data());
      for (size_t t = first; t < last; ++t) {
        const uint32_t k = live_[t];
        const Shared shared = lane.shared[k];
        lane.shared[k] = {};
        if (k == a) continue;
        const double lb = Bound(a, dense_total, k, shared);
        merged_bound_[k] = lb;
        merged_loss_[k] = std::numeric_limits<double>::quiet_NaN();
        if (!stale_[k] && (nn_[k] == a || nn_[k] == b)) stale_[k] = 1;
        if (lb < nn_dist_[k]) {
          // The merged cluster has the largest id, so strict < keeps the
          // incumbent on ties; on a stale row, a δI below the bound is
          // below every other δI of the row.
          const double d = Score(a, k, lane);
          merged_loss_[k] = d;
          if (d < nn_dist_[k]) {
            nn_[k] = a;
            nn_dist_[k] = d;
            stale_[k] = 0;
          }
        }
      }
    }
  });
  // The merged row's own nearest neighbour: the cells the refresh scored
  // are exact, the rest are bounded.
  Lane& lane = lanes_[0];
  Nearest best;
  uint32_t first = kNoSlot;
  for (const uint32_t k : live_) {
    if (k == a) continue;
    if (!std::isnan(merged_loss_[k])) {
      best.Offer(merged_loss_[k], k, cluster_[k]);
    }
    if (first == kNoSlot || merged_bound_[k] < merged_bound_[first]) first = k;
  }
  const auto score = [&](uint32_t k) {
    if (std::isnan(merged_loss_[k]) && merged_bound_[k] <= best.loss) {
      merged_loss_[k] = Score(a, k, lane);
      best.Offer(merged_loss_[k], k, cluster_[k]);
    }
  };
  score(first);
  for (const uint32_t k : live_) {
    if (k != a) score(k);
  }
  nn_[a] = best.slot;
  nn_dist_[a] = best.loss;
  stale_[a] = 0;
}

std::vector<Merge> AibRun::Run(size_t min_k, util::ThreadPool& pool,
                               AibStats* stats) {
  LIMBO_OBS_SPAN(build_span, "build");
  pool.ParallelFor(0, q_, 1, [&](size_t lo, size_t hi, size_t lane) {
    for (size_t i = lo; i < hi; ++i) {
      SearchRow(static_cast<uint32_t>(i), lanes_[lane]);
    }
  });
  build_span.Stop();

  LIMBO_OBS_SPAN(merge_span, "merge_loop");
  std::vector<Merge> merges;
  merges.reserve(q_ - min_k);
  double cumulative = 0.0;
  uint32_t next_cluster_id = static_cast<uint32_t>(q_);
  uint64_t rescans = 0;
  uint64_t survivors = 0;
  while (live_.size() > min_k) {
    // Orient the pair by cluster id so the recorded merge and the slot
    // the result lands in are independent of which side found it.
    const uint32_t best = Select(pool, &rescans);
    uint32_t a = best;
    uint32_t b = nn_[best];
    if (cluster_[b] < cluster_[a]) std::swap(a, b);
    LIMBO_CHECK(a != b && !stale_[a] && !stale_[b]);
    const double delta = nn_dist_[best];
    cumulative += delta;
    // Merge per Eq. 1/2: the merged conditional goes straight into arena
    // scratch with the same per-entry arithmetic as MergeDcf/WeightedMerge.
    const double pa = slots_[a].side.p;
    const double pb = slots_[b].side.p;
    postings_live_ -= arena_.Row(row_[a]).entries.size() +
                      arena_.Row(row_[b]).entries.size();
    double p_merged = pa + pb;
    if (p_merged <= 0.0) {
      p_merged = 0.0;
      row_[a] = arena_.Append(DistributionView{});
    } else {
      row_[a] = arena_.AppendMerge(pa / p_merged, row_[a], pb / p_merged,
                                   row_[b]);
    }
    // The append may have moved the slab under the lanes' row kernels.
    for (Lane& lane : lanes_) lane.row_cluster = kRetired;
    merges.push_back(Merge{cluster_[a], cluster_[b], next_cluster_id, delta,
                           cumulative, p_merged});

    // The merged cluster takes slot a; slot b dies.
    cluster_[a] = next_cluster_id++;
    cluster_[b] = kRetired;
    live_.erase(std::lower_bound(live_.begin(), live_.end(), b));
    slots_[a].side.p = p_merged;
    slots_[a].side.log2_p = p_merged > 0.0 ? std::log2(p_merged) : 0.0;
    Post(a);
    MaybeCompact();
    survivors += live_.size() - 1;
    if (live_.size() > min_k) {
      LIMBO_OBS_SPAN(refresh_span, "refresh");
      Refresh(a, b, pool);
    }
  }
  merge_span.Stop();

  for (const LossKernel& kernel : kernels_) {
    stats->distance_evals += kernel.stats().loss_calls;
  }
  LIMBO_OBS_COUNT("aib.nn_cache.misses", rescans);
  LIMBO_OBS_COUNT("aib.nn_cache.hits", survivors - rescans);
  FlushKernelStats(kernels_, "aib.kernel");
  return merges;
}

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
  AibStats stats;
  std::vector<Merge> merges;
  // With min_k == q there is nothing to merge, so nothing is scored.
  if (options.min_k < q) {
    util::ThreadPool pool(options.threads);
    AibRun run(inputs, pool.threads());
    merges = run.Run(options.min_k, pool, &stats);
  }
  AibResult result(q, std::move(merges));
  LIMBO_OBS_COUNT("aib.inputs", q);
  LIMBO_OBS_COUNT("aib.merges", result.merges().size());
  LIMBO_OBS_COUNT("aib.distance_evals", stats.distance_evals);
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
