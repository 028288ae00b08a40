// Per-pair reference formulations of the two δI argmins the library runs
// through its batch LossKernel and bound-pruned searches: the greedy AIB
// merge loop (Phase 2) and the Phase-3 assignment scan. They work on
// plain std::vector<Dcf> with InformationLoss and MergeDcf — no arena, no
// per-lane kernels, no value index, no lower bounds, no nearest-neighbour
// bookkeeping — so a bit-for-bit match against core::AgglomerativeIb and
// core::LimboPhase3 checks the batch storage, the pruning, the lazy
// rescans and the tie-breaking together. Used by kernel_test's
// KernelEquivalenceTest, on adversarial inputs and on the Phase-1 leaves
// of 2,000 DBLP tuples; deliberately slow (the AIB reference is the full
// pair matrix, rescanned every merge).

#ifndef LIMBO_TESTS_REFERENCE_PER_PAIR_H_
#define LIMBO_TESTS_REFERENCE_PER_PAIR_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "core/aib.h"
#include "core/dcf.h"

namespace limbo::reference {

/// Greedy AIB down to `min_k` clusters. Each step merges the live pair
/// with minimal δI, ties going to the lexicographically smallest
/// (min cluster id, max cluster id). Orientation is the one production
/// keeps, because δI is not bit-symmetric in its arguments: the initial
/// δI(i, j), i < j, takes slot i as the object, a merged cluster lands in
/// the slot of its lower-id input, and its refreshed distances take the
/// merged slot as the object — the newer cluster is always the object.
inline std::vector<core::Merge> AibMerges(const std::vector<core::Dcf>& inputs,
                                          size_t min_k) {
  const size_t q = inputs.size();
  std::vector<core::Dcf> slot = inputs;
  std::vector<uint32_t> id(q);
  std::vector<bool> alive(q, true);
  std::vector<std::vector<double>> dist(q, std::vector<double>(q, 0.0));
  for (size_t i = 0; i < q; ++i) {
    id[i] = static_cast<uint32_t>(i);
    for (size_t j = i + 1; j < q; ++j) {
      dist[i][j] = dist[j][i] = core::InformationLoss(slot[i], slot[j]);
    }
  }
  std::vector<core::Merge> merges;
  double cumulative = 0.0;
  for (size_t live = q; live > min_k; --live) {
    size_t a = SIZE_MAX;
    size_t b = SIZE_MAX;
    double best = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < q; ++i) {
      for (size_t j = 0; j < q; ++j) {
        // Visit each pair once, as (lower id, higher id).
        if (!alive[i] || !alive[j] || id[i] >= id[j]) continue;
        const double d = dist[i][j];
        const bool smaller_ids =
            a != SIZE_MAX &&
            (id[i] < id[a] || (id[i] == id[a] && id[j] < id[b]));
        if (a == SIZE_MAX || d < best || (d == best && smaller_ids)) {
          best = d;
          a = i;
          b = j;
        }
      }
    }
    cumulative += best;
    slot[a] = core::MergeDcf(slot[a], slot[b]);
    const uint32_t merged = static_cast<uint32_t>(q + merges.size());
    merges.push_back(core::Merge{id[a], id[b], merged, best, cumulative,
                                 slot[a].p});
    id[a] = merged;
    alive[b] = false;
    for (size_t j = 0; j < q; ++j) {
      if (alive[j] && j != a) {
        dist[a][j] = dist[j][a] = core::InformationLoss(slot[a], slot[j]);
      }
    }
  }
  return merges;
}

/// Phase 3: each object's label is the representative with minimal
/// δI(object, representative); strict < keeps the lowest index on ties.
struct Assignment {
  std::vector<uint32_t> labels;
  std::vector<double> losses;
};

inline Assignment AssignToNearest(
    const std::vector<core::Dcf>& objects,
    const std::vector<core::Dcf>& representatives) {
  Assignment out;
  for (const core::Dcf& object : objects) {
    uint32_t best = 0;
    double best_loss = std::numeric_limits<double>::infinity();
    for (size_t r = 0; r < representatives.size(); ++r) {
      const double d = core::InformationLoss(object, representatives[r]);
      if (d < best_loss) {
        best_loss = d;
        best = static_cast<uint32_t>(r);
      }
    }
    out.labels.push_back(best);
    out.losses.push_back(best_loss);
  }
  return out;
}

}  // namespace limbo::reference

#endif  // LIMBO_TESTS_REFERENCE_PER_PAIR_H_
