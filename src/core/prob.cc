#include "core/prob.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/counters.h"
#include "util/logging.h"

namespace limbo::core {

namespace {
constexpr double kLog2e = 1.4426950408889634;  // 1/ln(2)

double Log2(double x) { return std::log(x) * kLog2e; }
}  // namespace

SparseDistribution SparseDistribution::UniformOver(
    std::span<const uint32_t> ids) {
  SparseDistribution d;
  if (ids.empty()) return d;
  const double mass = 1.0 / static_cast<double>(ids.size());
  d.entries_.reserve(ids.size());
  for (uint32_t id : ids) d.entries_.push_back({id, mass});
  std::sort(d.entries_.begin(), d.entries_.end(),
            [](const Entry& a, const Entry& b) { return a.id < b.id; });
  for (size_t i = 1; i < d.entries_.size(); ++i) {
    LIMBO_CHECK(d.entries_[i].id != d.entries_[i - 1].id);
  }
  return d;
}

SparseDistribution SparseDistribution::FromPairs(std::vector<Entry> entries) {
  SparseDistribution d;
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.id < b.id; });
  double total = 0.0;
  for (const Entry& e : entries) {
    LIMBO_CHECK(e.mass >= 0.0);
    total += e.mass;
  }
  LIMBO_CHECK(total > 0.0);
  d.entries_.reserve(entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    if (i > 0) LIMBO_CHECK(entries[i].id != entries[i - 1].id);
    if (entries[i].mass > 0.0) {
      d.entries_.push_back({entries[i].id, entries[i].mass / total});
    }
  }
  return d;
}

SparseDistribution SparseDistribution::FromNormalizedPairs(
    std::vector<Entry> entries) {
  SparseDistribution d;
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.id < b.id; });
  for (size_t i = 0; i < entries.size(); ++i) {
    LIMBO_CHECK(entries[i].mass > 0.0);
    if (i > 0) LIMBO_CHECK(entries[i].id != entries[i - 1].id);
  }
  d.entries_ = std::move(entries);
  return d;
}

SparseDistribution SparseDistribution::WeightedMerge(
    double w1, const SparseDistribution& a, double w2,
    const SparseDistribution& b) {
  SparseDistribution out;
  out.entries_.reserve(a.entries_.size() + b.entries_.size());
  size_t i = 0;
  size_t j = 0;
  while (i < a.entries_.size() && j < b.entries_.size()) {
    const Entry& ea = a.entries_[i];
    const Entry& eb = b.entries_[j];
    if (ea.id < eb.id) {
      out.entries_.push_back({ea.id, w1 * ea.mass});
      ++i;
    } else if (eb.id < ea.id) {
      out.entries_.push_back({eb.id, w2 * eb.mass});
      ++j;
    } else {
      out.entries_.push_back({ea.id, w1 * ea.mass + w2 * eb.mass});
      ++i;
      ++j;
    }
  }
  for (; i < a.entries_.size(); ++i) {
    out.entries_.push_back({a.entries_[i].id, w1 * a.entries_[i].mass});
  }
  for (; j < b.entries_.size(); ++j) {
    out.entries_.push_back({b.entries_[j].id, w2 * b.entries_[j].mass});
  }
  return out;
}

double SparseDistribution::MassAt(uint32_t id) const {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), id,
      [](const Entry& e, uint32_t target) { return e.id < target; });
  if (it == entries_.end() || it->id != id) return 0.0;
  return it->mass;
}

double SparseDistribution::TotalMass() const {
  double total = 0.0;
  for (const Entry& e : entries_) total += e.mass;
  return total;
}

double SparseDistribution::Entropy() const {
  double h = 0.0;
  for (const Entry& e : entries_) {
    if (e.mass > 0.0) h -= e.mass * Log2(e.mass);
  }
  return h;
}

double KlDivergence(const SparseDistribution& p, const SparseDistribution& q) {
  double d = 0.0;
  const auto& pe = p.entries();
  const auto& qe = q.entries();
  size_t i = 0;
  size_t j = 0;
  while (i < pe.size()) {
    while (j < qe.size() && qe[j].id < pe[i].id) ++j;
    if (j == qe.size() || qe[j].id != pe[i].id) {
      return std::numeric_limits<double>::infinity();
    }
    d += pe[i].mass * Log2(pe[i].mass / qe[j].mass);
    ++i;
  }
  return d;
}

namespace {

using Entry = SparseDistribution::Entry;

/// First index >= j whose id is >= target, by galloping (exponential
/// probe doubling from j, then binary search inside the bracketed gap).
/// O(log gap) per call, and a full left-to-right sweep over ascending
/// targets costs O(small·log(large/small)) total — never worse than the
/// plain binary search per probe it replaces, and cache-friendlier
/// because probes start where the last match ended. `probes` counts id
/// comparisons when non-null.
size_t GallopTo(std::span<const Entry> e, size_t j, uint32_t target,
                uint64_t* probes) {
  const size_t n = e.size();
  if (j >= n) return n;
  if (probes) ++*probes;
  if (e[j].id >= target) return j;
  // Invariant: e[lo].id < target.
  size_t lo = j;
  size_t step = 1;
  size_t hi = j + step;
  while (hi < n) {
    if (probes) ++*probes;
    if (e[hi].id >= target) break;
    lo = hi;
    step <<= 1;
    hi = j + step;
  }
  if (hi > n) hi = n;
  while (lo + 1 < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (probes) ++*probes;
    if (e[mid].id < target) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return hi;
}

}  // namespace

namespace internal {

/// JS divergence when |p| << |q|: for ids only in q the per-id term is
/// w2 * q_i * log(1/w2), and the q-only mass is 1 - (q-mass at p's ids),
/// so the whole sum needs only |p| galloping lookups into q.
double JsDivergenceAsymmetric(double w1, const SparseDistribution& p,
                              double w2, const SparseDistribution& q,
                              uint64_t* probes) {
  const double log_inv_w1 = (w1 > 0.0) ? -std::log2(w1) : 0.0;
  const double log_inv_w2 = (w2 > 0.0) ? -std::log2(w2) : 0.0;
  double d = 0.0;
  double shared_q_mass = 0.0;
  const std::span<const Entry> qe(q.entries());
  size_t j = 0;
  for (const auto& e : p.entries()) {
    j = GallopTo(qe, j, e.id, probes);
    const double qm = (j < qe.size() && qe[j].id == e.id) ? qe[j].mass : 0.0;
    if (qm == 0.0) {
      d += w1 * e.mass * log_inv_w1;
    } else {
      shared_q_mass += qm;
      const double mm = w1 * e.mass + w2 * qm;
      d += w1 * e.mass * Log2(e.mass / mm) + w2 * qm * Log2(qm / mm);
    }
  }
  // Assumes q is normalized (every distribution in this library is); this
  // avoids the O(|q|) total-mass scan the fast path exists to skip.
  const double q_only = 1.0 - shared_q_mass;
  if (q_only > 0.0) d += w2 * q_only * log_inv_w2;
  return d < 0.0 ? 0.0 : d;
}

double JsDivergenceMergeJoin(double w1, const SparseDistribution& p,
                             double w2, const SparseDistribution& q) {
  const double log_inv_w1 = (w1 > 0.0) ? -Log2(w1) : 0.0;
  const double log_inv_w2 = (w2 > 0.0) ? -Log2(w2) : 0.0;
  double d = 0.0;
  const auto& pe = p.entries();
  const auto& qe = q.entries();
  size_t i = 0;
  size_t j = 0;
  while (i < pe.size() && j < qe.size()) {
    if (pe[i].id < qe[j].id) {
      d += w1 * pe[i].mass * log_inv_w1;
      ++i;
    } else if (qe[j].id < pe[i].id) {
      d += w2 * qe[j].mass * log_inv_w2;
      ++j;
    } else {
      const double pm = pe[i].mass;
      const double qm = qe[j].mass;
      const double mm = w1 * pm + w2 * qm;
      d += w1 * pm * Log2(pm / mm) + w2 * qm * Log2(qm / mm);
      ++i;
      ++j;
    }
  }
  for (; i < pe.size(); ++i) d += w1 * pe[i].mass * log_inv_w1;
  for (; j < qe.size(); ++j) d += w2 * qe[j].mass * log_inv_w2;
  // Guard against tiny negative rounding artifacts.
  return d < 0.0 ? 0.0 : d;
}

}  // namespace internal

double JsDivergence(double w1, const SparseDistribution& p, double w2,
                    const SparseDistribution& q) {
  // For id present only in p: m = w1*p_i, term = w1 * p_i * log(p_i / m)
  //                                            = w1 * p_i * log(1/w1).
  // Symmetrically for q. Shared ids use the full formula.
  if (p.Empty() || q.Empty()) return 0.0;
  // Asymmetric fast path: iterating the union is wasteful when one side is
  // tiny (an object distribution vs. a near-root cluster summary).
  if (p.SupportSize() * kAsymmetricCutoffRatio < q.SupportSize()) {
    return internal::JsDivergenceAsymmetric(w1, p, w2, q);
  }
  if (q.SupportSize() * kAsymmetricCutoffRatio < p.SupportSize()) {
    return internal::JsDivergenceAsymmetric(w2, q, w1, p);
  }
  return internal::JsDivergenceMergeJoin(w1, p, w2, q);
}

// ---------------------------------------------------------------------------
// DistributionArena

void DistributionArena::Clear() {
  entries_.clear();
  log2s_.clear();
  offsets_.assign(1, 0);
}

void DistributionArena::ReserveEntries(size_t n) {
  entries_.reserve(n);
  log2s_.reserve(n);
}

size_t DistributionArena::Append(DistributionView row) {
  for (size_t k = 0; k < row.entries.size(); ++k) {
    const Entry& e = row.entries[k];
    if (e.mass <= 0.0) continue;
    entries_.push_back(e);
    log2s_.push_back(row.log2s ? row.log2s[k] : Log2(e.mass));
  }
  offsets_.push_back(entries_.size());
  return offsets_.size() - 2;
}

size_t DistributionArena::AppendMerge(double w1, size_t a, double w2,
                                      size_t b) {
  const size_t na = offsets_[a + 1] - offsets_[a];
  const size_t nb = offsets_[b + 1] - offsets_[b];
  // Reserve up front so the source rows stay put while we push the merge.
  // Growth is geometric: an exact-size reserve would copy the whole slab
  // on nearly every merge once the caller's reserve runs out.
  const size_t need = entries_.size() + na + nb;
  if (need > entries_.capacity()) {
    entries_.reserve(std::max(need, 2 * entries_.capacity()));
  }
  if (need > log2s_.capacity()) {
    log2s_.reserve(std::max(need, 2 * log2s_.capacity()));
  }
  const Entry* ae = entries_.data() + offsets_[a];
  const Entry* be = entries_.data() + offsets_[b];
  auto emit = [this](uint32_t id, double mass) {
    if (mass <= 0.0) return;
    entries_.push_back({id, mass});
    log2s_.push_back(Log2(mass));
  };
  size_t i = 0;
  size_t j = 0;
  while (i < na && j < nb) {
    if (ae[i].id < be[j].id) {
      emit(ae[i].id, w1 * ae[i].mass);
      ++i;
    } else if (be[j].id < ae[i].id) {
      emit(be[j].id, w2 * be[j].mass);
      ++j;
    } else {
      emit(ae[i].id, w1 * ae[i].mass + w2 * be[j].mass);
      ++i;
      ++j;
    }
  }
  for (; i < na; ++i) emit(ae[i].id, w1 * ae[i].mass);
  for (; j < nb; ++j) emit(be[j].id, w2 * be[j].mass);
  offsets_.push_back(entries_.size());
  return offsets_.size() - 2;
}

// ---------------------------------------------------------------------------
// LossKernel

namespace {
// Ids below this scatter into the dense scratch; DBLP-style domains are
// a few hundred thousand ids, well under it. Larger ids fall back to a
// two-pointer walk with identical arithmetic, so the cap only trades
// memory for speed.
constexpr uint32_t kDenseIdLimit = 1u << 22;
}  // namespace

void LossKernel::SetObject(double p, DistributionView cond, uint64_t tag) {
  if (tag != 0 && tag == tag_) {
    ++stats_.dedup_hits;
    return;
  }
  ++stats_.scatters;
  tag_ = tag;
  for (uint32_t id : touched_) dense_mass_[id] = 0.0;
  touched_.clear();
  object_p_ = p;
  object_ = cond;
  const size_t n = cond.entries.size();
  if (cond.log2s == nullptr) owned_log2s_.resize(n);
  const uint32_t max_id = n > 0 ? cond.entries[n - 1].id : 0;  // sorted
  dense_ = n > 0 && max_id < kDenseIdLimit;
  if (dense_ && dense_mass_.size() <= max_id) {
    dense_mass_.resize(max_id + 1, 0.0);
    dense_log_.resize(max_id + 1, 0.0);
  }
  double total = 0.0;
  for (size_t k = 0; k < n; ++k) {
    const double mass = cond.entries[k].mass;
    total += mass;
    const double log =
        cond.log2s ? cond.log2s[k] : (mass > 0.0 ? Log2(mass) : 0.0);
    if (cond.log2s == nullptr) owned_log2s_[k] = log;
    if (dense_ && mass > 0.0) {
      const uint32_t id = cond.entries[k].id;
      dense_mass_[id] = mass;
      dense_log_[id] = log;
      touched_.push_back(id);
    }
  }
  object_log2s_ = cond.log2s ? cond.log2s : owned_log2s_.data();
  object_mass_ = total;
}

double LossKernel::Loss(double p, DistributionView cand) const {
  ++stats_.loss_calls;
  const double total = object_p_ + p;
  if (total <= 0.0) return 0.0;
  if (object_.Empty() || cand.Empty()) return 0.0;
  const double w1 = object_p_ / total;
  const double w2 = p / total;
  const double js =
      (object_.SupportSize() * kAsymmetricCutoffRatio < cand.SupportSize())
          ? JsSmallObject(w1, w2, cand)
          : JsStreamCandidate(w1, w2, cand);
  return total * (js < 0.0 ? 0.0 : js);
}

double LossKernel::JsSmallObject(double w1, double w2,
                                 DistributionView cand) const {
  const double log_inv_w1 = (w1 > 0.0) ? -Log2(w1) : 0.0;
  const double log_inv_w2 = (w2 > 0.0) ? -Log2(w2) : 0.0;
  double d = 0.0;
  double shared_c = 0.0;
  const std::span<const Entry> ce = cand.entries;
  const std::span<const Entry> oe = object_.entries;
  size_t j = 0;
  for (size_t k = 0; k < oe.size(); ++k) {
    const double pm = oe[k].mass;
    if (pm <= 0.0) continue;
    const uint32_t id = oe[k].id;
    j = GallopTo(ce, j, id, nullptr);
    if (j < ce.size() && ce[j].id == id && ce[j].mass > 0.0) {
      const double qm = ce[j].mass;
      const double lq = cand.log2s ? cand.log2s[j] : Log2(qm);
      const double mm = w1 * pm + w2 * qm;
      d += w1 * pm * object_log2s_[k] + w2 * qm * lq - mm * Log2(mm);
    } else {
      d += w1 * pm * log_inv_w1;
    }
    if (j < ce.size() && ce[j].id == id) shared_c += ce[j].mass;
  }
  // Candidate-only mass as a residual: the candidate is normalized
  // (every conditional here is), so 1 - shared avoids the O(|cand|) scan
  // this path exists to skip — same assumption as JsDivergenceAsymmetric.
  const double c_only = 1.0 - shared_c;
  if (c_only > 0.0) d += w2 * c_only * log_inv_w2;
  return d;
}

double LossKernel::JsStreamCandidate(double w1, double w2,
                                     DistributionView cand) const {
  const double log_inv_w1 = (w1 > 0.0) ? -Log2(w1) : 0.0;
  const double log_inv_w2 = (w2 > 0.0) ? -Log2(w2) : 0.0;
  double d = 0.0;
  double shared_o = 0.0;
  const std::span<const Entry> ce = cand.entries;
  if (dense_) {
    const size_t limit = dense_mass_.size();
    for (size_t j = 0; j < ce.size(); ++j) {
      const double qm = ce[j].mass;
      if (qm <= 0.0) continue;
      const uint32_t id = ce[j].id;
      const double pm = (id < limit) ? dense_mass_[id] : 0.0;
      if (pm == 0.0) {
        d += w2 * qm * log_inv_w2;
      } else {
        const double lq = cand.log2s ? cand.log2s[j] : Log2(qm);
        const double mm = w1 * pm + w2 * qm;
        d += w1 * pm * dense_log_[id] + w2 * qm * lq - mm * Log2(mm);
        shared_o += pm;
      }
    }
  } else {
    // Dense scatter unavailable (huge ids): two-pointer into the object
    // row, emitting the exact same per-entry terms in the same order.
    const std::span<const Entry> oe = object_.entries;
    size_t k = 0;
    for (size_t j = 0; j < ce.size(); ++j) {
      const double qm = ce[j].mass;
      if (qm <= 0.0) continue;
      const uint32_t id = ce[j].id;
      k = GallopTo(oe, k, id, nullptr);
      const bool hit = k < oe.size() && oe[k].id == id && oe[k].mass > 0.0;
      if (!hit) {
        d += w2 * qm * log_inv_w2;
      } else {
        const double pm = oe[k].mass;
        const double lq = cand.log2s ? cand.log2s[j] : Log2(qm);
        const double mm = w1 * pm + w2 * qm;
        d += w1 * pm * object_log2s_[k] + w2 * qm * lq - mm * Log2(mm);
        shared_o += pm;
      }
    }
  }
  // Object-only mass as a residual of the exact entry-order total, so the
  // result does not depend on which candidate is being scored.
  const double o_only = object_mass_ - shared_o;
  if (o_only > 0.0) d += w1 * o_only * log_inv_w1;
  return d;
}

// ---------------------------------------------------------------------------
// CandidateSet and the pruned nearest-candidate search

void CandidateSet::Reserve(size_t candidates, size_t entries) {
  priors_.reserve(candidates);
  log2_priors_.reserve(candidates);
  mass_caps_.reserve(candidates);
  entries_.reserve(entries);
  row_begin_.reserve(candidates + 1);
}

void CandidateSet::Add(double p, DistributionView cond) {
  double mass = 0.0;
  for (const Entry& e : cond.entries) {
    if (e.mass <= 0.0) continue;
    entries_.push_back(e);
    mass += e.mass;
  }
  row_begin_.push_back(entries_.size());
  priors_.push_back(p);
  log2_priors_.push_back(p > 0.0 ? Log2(p) : 0.0);
  mass_caps_.push_back(std::min(1.0, mass));
}

namespace {
// `m` rounded up to a float, so that a sum of these is never below the
// exact sum of the masses.
float FloatAtLeast(double m) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  if (!(m < std::numeric_limits<float>::max())) return kInf;
  const float f = static_cast<float>(m);
  return static_cast<double>(f) < m ? std::nextafter(f, kInf) : f;
}
}  // namespace

void CandidateSet::BuildIndex() {
  // Counting sort of the row entries by value id; filling the lists
  // candidate by candidate leaves each one in candidate order. The ids
  // are sorted in posting_candidate_ first, which the fill overwrites.
  const size_t total = entries_.size();
  LIMBO_CHECK(total <= UINT32_MAX);
  posting_candidate_.reserve(total);
  for (size_t c = 0; c < size(); ++c) {
    for (const Entry& e : Row(c).entries) {
      posting_candidate_.push_back(e.id);
    }
  }
  std::sort(posting_candidate_.begin(), posting_candidate_.end());
  value_ids_.assign(posting_candidate_.begin(),
                    std::unique(posting_candidate_.begin(),
                                posting_candidate_.end()));
  const auto slot = [this](uint32_t id) {
    return std::lower_bound(value_ids_.begin(), value_ids_.end(), id) -
           value_ids_.begin();
  };
  posting_begin_.assign(value_ids_.size() + 1, 0);
  for (size_t c = 0; c < size(); ++c) {
    for (const Entry& e : Row(c).entries) {
      ++posting_begin_[slot(e.id) + 1];
    }
  }
  for (size_t v = 0; v < value_ids_.size(); ++v) {
    posting_begin_[v + 1] += posting_begin_[v];
  }
  std::vector<uint32_t> next(posting_begin_.begin(),
                            posting_begin_.end() - 1);
  posting_candidate_.resize(total);
  posting_mass_.resize(total);
  for (size_t c = 0; c < size(); ++c) {
    for (const Entry& e : Row(c).entries) {
      const uint32_t k = next[slot(e.id)]++;
      posting_candidate_[k] = static_cast<uint32_t>(c);
      posting_mass_[k] = FloatAtLeast(e.mass);
    }
  }
}

namespace {
// Rounding slack of the lower bound: the bound is scaled by 1 − 1e-9 and
// then lowered by (p_o + p_c)·1e-12, the scale of the kernel's own
// rounding in δI = (p_o + p_c)·JS. The absolute part is what keeps ties
// exact: an object with a tiny mass (say 1e-15) that a candidate lacks
// gives that candidate a bound of about 1e-15·A, while its δI and that of
// an exact copy of the object can both round to 0 — a tie the lower index
// must win. It also covers a shave of 1e-12 off U_o and U_c, because
// A + B <= p_o + p_c, and candidates whose prior dwarfs the object's,
// whose δI carries rounding of order p_c·1e-16.
constexpr double kBoundRelativeSlack = 1e-9;
constexpr double kBoundLossSlack = 1e-12;
}  // namespace

NearestCandidate FindNearestCandidate(LossKernel* kernel, double object_p,
                                      DistributionView object_cond,
                                      const CandidateSet& candidates) {
  const size_t n = candidates.size();
  kernel->SetObject(object_p, object_cond);
  std::vector<LossKernel::SharedMass>& shared = kernel->shared_;
  std::vector<double>& bounds = kernel->bounds_;
  if (shared.size() < n) {
    shared.resize(n);
    bounds.resize(n);
  }
  const double object_mass = kernel->object_mass_;
  const bool bounded = object_p > 0.0 && object_mass > 0.0;
  if (bounded) {
    // Shared masses through the inverted index. Object ids that no
    // candidate holds (past the index included) are simply unshared.
    const std::vector<uint32_t>& ids = candidates.value_ids_;
    auto it = ids.begin();
    for (const Entry& e : object_cond.entries) {
      if (e.mass <= 0.0) continue;
      it = std::lower_bound(it, ids.end(), e.id);  // object ids ascend
      if (it == ids.end()) break;
      if (*it != e.id) continue;
      const size_t v = it - ids.begin();
      for (size_t k = candidates.posting_begin_[v];
           k < candidates.posting_begin_[v + 1]; ++k) {
        LossKernel::SharedMass& m = shared[candidates.posting_candidate_[k]];
        m.object += e.mass;
        m.candidate += candidates.posting_mass_[k];
      }
    }
  }
  // LB = A·U_o + B·U_c, with log2(1 + p_c/p_o) split as
  // max(0, log2 p_c − log2 p_o) + log2(1 + r), r = min/max of the priors,
  // and log2(1 + r) >= log2(e)·2r/(2 + r) = log2(e)·2·min/(2·max + min).
  const double po = object_p;
  const double log_po = bounded ? Log2(po) : 0.0;
  size_t first = 0;
  for (size_t c = 0; c < n; ++c) {
    double lb = 0.0;
    const double pc = candidates.priors_[c];
    if (bounded && pc > 0.0 && candidates.mass_caps_[c] > 0.0) {
      const double log_pc = candidates.log2_priors_[c];
      const double p_min = std::min(pc, po);
      const double log_1r =
          kLog2e * 2.0 * p_min / (2.0 * std::max(pc, po) + p_min);
      const double a = po * (std::max(0.0, log_pc - log_po) + log_1r);
      const double b = pc * (std::max(0.0, log_po - log_pc) + log_1r);
      const double uo = object_mass - shared[c].object;
      const double uc = candidates.mass_caps_[c] - shared[c].candidate;
      lb = (a * std::max(0.0, uo) + b * std::max(0.0, uc)) *
               (1.0 - kBoundRelativeSlack) -
           kBoundLossSlack * (po + pc);
      if (!(lb > 0.0)) lb = 0.0;
    }
    shared[c] = {};
    bounds[c] = lb;
    if (lb < bounds[first]) first = c;
  }
  // Score the most promising candidate, then every candidate in index
  // order that its bound cannot rule out; keep the (loss, index) minimum.
  NearestCandidate best;
  best.loss = std::numeric_limits<double>::infinity();
  const auto score = [&](size_t c) {
    const double d = kernel->Loss(candidates.priors_[c], candidates.Row(c));
    if (d < best.loss || (d == best.loss && c < best.index)) {
      best.loss = d;
      best.index = static_cast<uint32_t>(c);
    }
  };
  score(first);
  for (size_t c = 0; c < n; ++c) {
    if (c != first && bounds[c] <= best.loss) score(c);
  }
  return best;
}

void FlushKernelStats(const std::vector<LossKernel>& kernels,
                      const std::string& prefix) {
  if (!obs::Enabled()) return;
  LossKernel::Stats total;
  for (const LossKernel& kernel : kernels) {
    total.loss_calls += kernel.stats().loss_calls;
    total.scatters += kernel.stats().scatters;
    total.dedup_hits += kernel.stats().dedup_hits;
  }
  obs::GetCounter(prefix + ".loss_calls").Add(total.loss_calls);
  obs::GetCounter(prefix + ".scatters", /*scheduling=*/true)
      .Add(total.scatters);
  obs::GetCounter(prefix + ".dedup_hits", /*scheduling=*/true)
      .Add(total.dedup_hits);
}

}  // namespace limbo::core
