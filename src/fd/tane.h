#ifndef LIMBO_FD_TANE_H_
#define LIMBO_FD_TANE_H_

#include <vector>

#include "fd/fd.h"
#include "util/result.h"

namespace limbo::fd {

/// TANE (Huhtala, Kärkkäinen, Porkka, Toivonen, 1999): levelwise discovery
/// of minimal exact FDs using stripped partitions and C+ candidate-set
/// pruning. Scales with the number of *valid small LHSs* rather than with
/// n^2, so it is the miner of choice for the paper's 35k–50k tuple DBLP
/// partitions (the paper notes "Other methods could also be used").
///
/// Returns exactly the same minimal-FD set as Fdep::Mine on any input
/// (a property the test suite checks).
struct TaneOptions {
  /// Bound on LHS size (lattice level); dependencies that need a wider
  /// LHS are not reported. 0 means "no bound".
  size_t max_lhs = 0;
  /// Minimum LHS size; see FdepOptions::min_lhs. With 1, constant
  /// attributes yield [B] → A for every B instead of ∅ → A.
  size_t min_lhs = 0;
};

class Tane {
 public:
  static util::Result<std::vector<FunctionalDependency>> Mine(
      const relation::Relation& rel, const TaneOptions& options = TaneOptions());
};

/// The FDEP/TANE crossover: the most tuples FDEP's O(n²) pair scan is
/// given before TANE takes over.
inline constexpr size_t kFdepMaxTuples = 2000;

/// Minimal exact FDs by the miner suited to the relation's size: Fdep::Mine
/// up to `fdep_max_tuples` tuples, above that Tane::Mine with min_lhs = 1.
util::Result<std::vector<FunctionalDependency>> MineMinimalFds(
    const relation::Relation& rel, size_t fdep_max_tuples = kFdepMaxTuples);

}  // namespace limbo::fd

#endif  // LIMBO_FD_TANE_H_
