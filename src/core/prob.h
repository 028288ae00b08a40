#ifndef LIMBO_CORE_PROB_H_
#define LIMBO_CORE_PROB_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

namespace limbo::core {

/// A sparse probability distribution over a discrete domain indexed by
/// uint32 ids. Entries are sorted by id and strictly positive; absent ids
/// have mass zero. This is the representation of every p(T|c) / p(V|t)
/// vector in the paper — clusters over large domains stay cheap as long as
/// their supports are small, and merges are linear in the union support.
class SparseDistribution {
 public:
  struct Entry {
    uint32_t id;
    double mass;
  };

  SparseDistribution() = default;

  /// Uniform distribution over `ids` (need not be sorted; must be unique).
  static SparseDistribution UniformOver(std::span<const uint32_t> ids);

  /// From explicit (id, mass) pairs; normalizes so masses sum to 1.
  /// Pairs need not be sorted; ids must be unique; masses must be >= 0 and
  /// not all zero.
  static SparseDistribution FromPairs(std::vector<Entry> entries);

  /// From (id, mass) pairs that already form a distribution (e.g. parsed
  /// back from a serialized one): masses are kept bit-for-bit, never
  /// renormalized. Pairs need not be sorted; ids must be unique; masses
  /// must be > 0.
  static SparseDistribution FromNormalizedPairs(std::vector<Entry> entries);

  /// Convex combination w1*a + w2*b (w1 + w2 should be 1 for a valid
  /// distribution; the function does not renormalize). This is Eq. (2) of
  /// the paper with w1 = p(c1)/p(c*), w2 = p(c2)/p(c*).
  static SparseDistribution WeightedMerge(double w1,
                                          const SparseDistribution& a,
                                          double w2,
                                          const SparseDistribution& b);

  size_t SupportSize() const { return entries_.size(); }
  bool Empty() const { return entries_.empty(); }
  const std::vector<Entry>& entries() const { return entries_; }

  /// Mass at `id` (0 if absent). O(log support).
  double MassAt(uint32_t id) const;

  /// Sum of masses (1.0 up to rounding for a proper distribution).
  double TotalMass() const;

  /// Shannon entropy, base 2.
  double Entropy() const;

  bool operator==(const SparseDistribution& other) const {
    return entries_ == other.entries_;
  }

 private:
  std::vector<Entry> entries_;

  friend bool operator==(const Entry& a, const Entry& b);
};

inline bool operator==(const SparseDistribution::Entry& a,
                       const SparseDistribution::Entry& b) {
  return a.id == b.id && a.mass == b.mass;
}

/// Kullback–Leibler divergence D_KL[p || q], base 2. Requires the support
/// of p to be contained in the support of q; returns +inf otherwise.
double KlDivergence(const SparseDistribution& p, const SparseDistribution& q);

/// Weighted Jensen–Shannon divergence
///   JS_{w1,w2}[p, q] = w1 D_KL[p || m] + w2 D_KL[q || m],  m = w1 p + w2 q.
/// Computed in one merge pass without materializing m. Base 2; bounded by 1.
double JsDivergence(double w1, const SparseDistribution& p, double w2,
                    const SparseDistribution& q);

/// Support-size ratio at which JsDivergence (and LossKernel) switch from
/// the merge-join evaluation to the asymmetric small-side iteration.
/// Measured in `micro_limbo --kernel`: at equal supports the merge-join
/// path wins (one streaming pass, no per-entry searches); once one side
/// is ~an order of magnitude smaller, walking the small side with
/// galloping lookups into the large side is faster because it skips the
/// large side's private entries entirely (their mass is folded in as
/// 1 − shared). 16 sits comfortably past the crossover for every support
/// shape in BENCH_kernel.json, and the two paths agree to < 1e-12, so
/// the exact value only affects speed, never results (property-tested at
/// the boundary in kernel_test.cc).
inline constexpr size_t kAsymmetricCutoffRatio = 16;

/// Non-owning view of a sorted sparse row: a span of entries plus an
/// optional parallel array of cached log2(mass) values (arena rows carry
/// one; plain SparseDistributions do not). Cached or not, the kernel
/// produces identical bits — the cache holds exactly what Log2(mass)
/// would return — caching just skips the call.
struct DistributionView {
  using Entry = SparseDistribution::Entry;

  std::span<const Entry> entries;
  const double* log2s = nullptr;

  DistributionView() = default;
  // Implicit: every SparseDistribution is viewable.
  DistributionView(const SparseDistribution& d)  // NOLINT
      : entries(d.entries()) {}
  DistributionView(std::span<const Entry> e, const double* logs)
      : entries(e), log2s(logs) {}

  size_t SupportSize() const { return entries.size(); }
  bool Empty() const { return entries.empty(); }
};

/// Slab (CSR) storage for the distribution working set of a clustering
/// run: every row lives in one contiguous {id, mass} array with a
/// parallel cached-log2(mass) array and an offsets table. AIB keeps its
/// slot conditionals here, so the quadratic distance scans stream one allocation instead of hopping
/// between per-cluster heap vectors, and the per-entry logs are computed
/// once per row instead of once per evaluation.
///
/// Rows are immutable once appended; merging clusters appends the merged
/// row (AppendMerge) and the caller retires the old index. Appending may
/// reallocate the slab, so hold row *indices* across Append calls and
/// re-take views afterwards.
class DistributionArena {
 public:
  using Entry = SparseDistribution::Entry;

  size_t NumRows() const { return offsets_.size() - 1; }
  size_t NumEntries() const { return entries_.size(); }

  void Clear();
  void ReserveEntries(size_t n);

  /// Copies `row` into the slab, dropping zero-mass entries and caching
  /// log2 of every mass. Returns the new row index.
  size_t Append(DistributionView row);

  /// Writes the weighted merge w1·rows[a] + w2·rows[b] (Eq. 2) directly
  /// into slab scratch — the same per-entry expressions as
  /// SparseDistribution::WeightedMerge, so the masses are bit-identical
  /// to a MergeDcf of the same rows — and returns the new row index.
  /// Zero-mass results (possible only when a weight is 0) are dropped.
  size_t AppendMerge(double w1, size_t a, double w2, size_t b);

  DistributionView Row(size_t i) const {
    const size_t begin = offsets_[i];
    return DistributionView(
        std::span<const Entry>(entries_.data() + begin,
                               offsets_[i + 1] - begin),
        log2s_.data() + begin);
  }

 private:
  std::vector<Entry> entries_;
  std::vector<double> log2s_;  // log2(entries_[k].mass), parallel
  std::vector<size_t> offsets_ = {0};
};

/// One side of the δI lower bound below: a prior, its log2 (0 for a zero
/// prior) and the row's total mass capped at 1.
struct BoundSide {
  double p = 0.0;
  double log2_p = 0.0;
  double mass = 0.0;
};

/// The exact lower bound on δI(o, c) that both bound-pruned searches
/// (FindNearestCandidate and AgglomerativeIb) prune with. With A =
/// p_o·log2(1 + p_c/p_o), B = p_c·log2(1 + p_o/p_c), U_o = o.mass −
/// shared_o (the object's mass on values the candidate lacks) and U_c =
/// c.mass − shared_c,
///     δI(o, c) = A·U_o + B·U_c + (p_o + p_c)·Σ_shared JS terms,
/// and every shared JS term is >= 0, so LB = A·U_o + B·U_c <= δI. The
/// logs come from the sides' log2 priors plus a rational lower bound on
/// log2(1 + r), r = min/max of the two priors, so a bound costs no log.
/// It returns 0 when either side has a zero prior or no mass. The bound is
/// symmetric in exact arithmetic, so either side may be the kernel object.
///
/// Rounding slack: the bound is scaled by 1 − 1e-9 and then lowered by
/// (p_o + p_c)·1e-12, the scale of the kernel's own rounding in δI =
/// (p_o + p_c)·JS. The absolute part is what keeps ties exact: an object
/// with a tiny mass (say 1e-15) that a candidate lacks gives that
/// candidate a bound of about 1e-15·A, while its δI and that of an exact
/// copy of the object can both round to 0 — a tie the lower index or id
/// must win. It also covers a shave of 1e-12 off U_o and U_c, because
/// A + B <= p_o + p_c, and candidates whose prior dwarfs the object's,
/// whose δI carries rounding of order p_c·1e-16.
inline double LossLowerBound(const BoundSide& o, double shared_o,
                             const BoundSide& c, double shared_c) {
  constexpr double kRelativeSlack = 1e-9;
  constexpr double kLossSlack = 1e-12;
  constexpr double kLog2e = 1.4426950408889634;  // 1/ln(2)
  if (!(o.p > 0.0 && o.mass > 0.0 && c.p > 0.0 && c.mass > 0.0)) return 0.0;
  // log2(1 + p_c/p_o) = max(0, log2 p_c − log2 p_o) + log2(1 + r), and
  // log2(1 + r) >= log2(e)·2r/(2 + r) = log2(e)·2·min/(2·max + min).
  const double p_min = std::min(o.p, c.p);
  const double log_1r =
      kLog2e * 2.0 * p_min / (2.0 * std::max(o.p, c.p) + p_min);
  const double a = o.p * (std::max(0.0, c.log2_p - o.log2_p) + log_1r);
  const double b = c.p * (std::max(0.0, o.log2_p - c.log2_p) + log_1r);
  const double lb = (a * std::max(0.0, o.mass - shared_o) +
                     b * std::max(0.0, c.mass - shared_c)) *
                        (1.0 - kRelativeSlack) -
                    kLossSlack * (o.p + c.p);
  return lb > 0.0 ? lb : 0.0;
}

/// `m` rounded up to a float, so that a sum of these is never below the
/// exact sum of the masses: an index that stores posting masses this way
/// can only overstate a shared mass, which keeps U and the bound from
/// overstating.
inline float FloatAtLeast(double m) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  if (!(m < std::numeric_limits<float>::max())) return kInf;
  const float f = static_cast<float>(m);
  return static_cast<double>(f) < m ? std::nextafter(f, kInf) : f;
}

/// Result of a nearest-candidate search: the winning candidate's index in
/// its CandidateSet and its δI.
struct NearestCandidate {
  uint32_t index = 0;
  double loss = 0.0;
};

class CandidateSet;

/// Fused δI evaluator (Eq. 3) for one object against many candidates.
///
/// SetObject scatters the object's entries (mass and log2 mass) into a
/// reusable dense scratch once; each Loss() then streams one candidate
/// row in a single pass. Per shared entry the JS integrand is evaluated
/// in the rearranged form
///     w1·p·log2(p) + w2·q·log2(q) − m·log2(m),   m = w1·p + w2·q,
/// which costs one fresh log2 (for m) when both sides carry cached logs,
/// instead of the two of the textbook log2(p/m) + log2(q/m) form.
/// Entries private to the candidate contribute w2·q·log2(1/w2) as they
/// stream; entries private to the object are folded in at the end as
/// w1·(object mass − shared mass)·log2(1/w1). When the object support is
/// kAsymmetricCutoffRatio× smaller than the candidate's, the roles flip:
/// the object side is walked with galloping lookups into the candidate
/// row and the candidate-private mass becomes the residual.
///
/// InformationLoss(a, b) IS SetObject(a) + Loss(b), so the batch path is
/// bit-identical to the per-pair path by construction, and determinism
/// across thread counts follows because each evaluation is a pure
/// function of the pair.
class LossKernel {
 public:
  /// Plain per-kernel work tallies — no atomics, because each kernel is
  /// owned by one lane. Call sites flush them into the obs counter
  /// registry after their parallel regions join (FlushKernelStats).
  struct Stats {
    /// Loss() invocations. Thread-invariant: dispatch is structural.
    uint64_t loss_calls = 0;
    /// SetObject() calls. A scheduling tally: call sites that SetObject
    /// once per work item (Phase 3) produce thread-invariant sums, but
    /// AIB's lanes each keep the row they last set, so there the sum
    /// depends on which lane scored which row.
    uint64_t scatters = 0;
  };

  /// Fixes the object side. The view's backing storage must outlive
  /// subsequent Loss calls.
  void SetObject(double p, DistributionView cond);

  /// δI(object, candidate) — Eq. 3, bits.
  double Loss(double p, DistributionView cand) const;

  const Stats& stats() const { return stats_; }
  void ResetStats() { stats_ = Stats(); }

 private:
  friend NearestCandidate FindNearestCandidate(LossKernel* kernel,
                                               double object_p,
                                               DistributionView object_cond,
                                               const CandidateSet& candidates);

  double JsSmallObject(double w1, double w2, DistributionView cand) const;
  double JsStreamCandidate(double w1, double w2, DistributionView cand) const;

  double object_p_ = 0.0;
  double object_mass_ = 0.0;  // exact Σ mass, in entry order
  DistributionView object_;
  const double* object_log2s_ = nullptr;
  std::vector<double> owned_log2s_;  // object logs when the view has none
  // Dense scratch indexed by id, cleared via the touched list. Disabled
  // (two-pointer fallback, identical results) when the object's id
  // universe is too large to scatter.
  bool dense_ = false;
  std::vector<double> dense_mass_;
  std::vector<double> dense_log_;
  std::vector<uint32_t> touched_;
  mutable Stats stats_;  // mutable: Loss() is logically const
  // FindNearestCandidate's per-candidate scratch: the object's and the
  // candidate's mass on their shared values (all zero between searches),
  // side by side because the postings walk updates both, and the lower
  // bound on δI.
  struct SharedMass {
    double object = 0.0;
    double candidate = 0.0;
  };
  std::vector<SharedMass> shared_;
  std::vector<double> bounds_;
};

/// The frozen candidate side of a nearest-candidate search — Phase 3's
/// representatives (or Phase-1 leaves), and the serving engine's. Built
/// once per candidate list, read-only afterwards, shared by every lane.
/// It holds:
///  - each candidate's prior, log2 prior and total mass (capped at 1);
///  - the conditionals as CSR rows (row i is candidate i), without a
///    log2 cache: the search scores so few candidates that the logs
///    would cost more memory (8 bytes an entry) than they save time, and
///    the kernel's bits do not depend on the cache;
///  - a CSR inverted index from value id to the (candidate, mass) pairs
///    of every row holding that id, so one walk over an object's values
///    yields its shared mass with every candidate.
class CandidateSet {
 public:
  using Entry = SparseDistribution::Entry;

  /// Freezes `candidates` in order: any range of elements with a prior
  /// `.p` and a conditional `.cond` (a std::vector<Dcf>, say).
  template <class Range>
  explicit CandidateSet(const Range& candidates) {
    size_t entries = 0;
    for (const auto& c : candidates) entries += c.cond.SupportSize();
    Reserve(std::size(candidates), entries);
    for (const auto& c : candidates) Add(c.p, c.cond);
    BuildIndex();
  }

  size_t size() const { return priors_.size(); }
  double prior(size_t i) const { return priors_[i]; }
  DistributionView Row(size_t i) const {
    return DistributionView(
        std::span<const Entry>(entries_.data() + row_begin_[i],
                               row_begin_[i + 1] - row_begin_[i]),
        nullptr);
  }

 private:
  friend NearestCandidate FindNearestCandidate(LossKernel* kernel,
                                               double object_p,
                                               DistributionView object_cond,
                                               const CandidateSet& candidates);

  void Reserve(size_t candidates, size_t entries);
  void Add(double p, DistributionView cond);
  void BuildIndex();

  std::vector<double> priors_;
  std::vector<double> log2_priors_;
  std::vector<double> mass_caps_;  // min(1, Σ row mass)
  // The conditionals in CSR form: candidate i is entries_
  // [row_begin_[i], row_begin_[i + 1]).
  std::vector<Entry> entries_;
  std::vector<size_t> row_begin_ = {0};
  // Inverted index: the postings of value_ids_[v] are entries
  // [posting_begin_[v], posting_begin_[v + 1]) of the two parallel
  // arrays, in candidate order. A posting's mass is the candidate's mass
  // rounded up to a float: the shared mass it sums to may only overstate
  // the exact one, which keeps U_c, and with it the bound, from
  // overstating.
  std::vector<uint32_t> value_ids_;  // sorted, distinct
  std::vector<uint32_t> posting_begin_;
  std::vector<uint32_t> posting_candidate_;
  std::vector<float> posting_mass_;
};

/// The Phase-3 inner loop: the candidate with minimal δI(object, ·), the
/// lowest index winning ties. Phase3Assigner::AssignChunk and the serving
/// engine's assign path both call this one function, which is what makes
/// a served label bit-identical to the batch run's.
///
/// The search is exact but scores only candidates LossLowerBound cannot
/// rule out: one walk over the object's postings gives U_o and U_c for
/// every candidate. The candidate with the smallest bound is scored
/// first, then, in index order, every candidate whose bound is <= the
/// running best; the result is the (loss, index) lexicographic minimum —
/// exactly the strict-< first-index argmin of a full scan, in labels and
/// loss bits. Zero-prior or empty objects are scored against every
/// candidate; zero-prior or empty candidates get bound 0.
/// docs/algorithms.md has the derivation. `candidates` must be non-empty;
/// the per-candidate scratch lives in `kernel`.
NearestCandidate FindNearestCandidate(LossKernel* kernel, double object_p,
                                      DistributionView object_cond,
                                      const CandidateSet& candidates);

/// Sums the tallies of a set of per-lane kernels into the obs counters
/// `<prefix>.loss_calls` (work — identical at every thread count) and
/// `<prefix>.scatters` (scheduling — dependent on lane count and on which
/// lane did which work). No-op while obs is disabled. Call once
/// per kernel lifetime, after all parallel regions joined.
void FlushKernelStats(const std::vector<LossKernel>& kernels,
                      const std::string& prefix);

namespace internal {

/// The two JsDivergence evaluation paths, exposed for property tests and
/// the kernel microbenchmark. `probes`, when non-null, accumulates the
/// number of id comparisons the galloping lookups perform (the
/// complexity regression tests bound it).
double JsDivergenceMergeJoin(double w1, const SparseDistribution& p,
                             double w2, const SparseDistribution& q);
double JsDivergenceAsymmetric(double w1, const SparseDistribution& p,
                              double w2, const SparseDistribution& q,
                              uint64_t* probes = nullptr);

}  // namespace internal

}  // namespace limbo::core

#endif  // LIMBO_CORE_PROB_H_
