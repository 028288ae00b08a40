#ifndef LIMBO_FD_TANE_H_
#define LIMBO_FD_TANE_H_

#include <vector>

#include "fd/fd.h"
#include "util/result.h"

namespace limbo::fd {

/// TANE (Huhtala, Kärkkäinen, Porkka, Toivonen, 1999): levelwise discovery
/// of minimal exact FDs using stripped partitions and C+ candidate-set
/// pruning. Scales with the number of *valid small LHSs* rather than with
/// n^2 (the paper notes "Other methods could also be used").
///
/// The one exact-FD miner of the pipeline: the structure summary, refit
/// and `limbo-tool fds` all call Tane::Mine at the default min_lhs = 0, so
/// a constant attribute A yields ∅ → A at every relation size. At equal
/// min_lhs it returns exactly Fdep::Mine's list in the same canonical
/// order; FDEP is the reference the test suite checks it against.
struct TaneOptions {
  /// Minimum LHS size; see FdepOptions::min_lhs. With 1, constant
  /// attributes yield [B] → A for every B instead of ∅ → A.
  size_t min_lhs = 0;
};

class Tane {
 public:
  static util::Result<std::vector<FunctionalDependency>> Mine(
      const relation::Relation& rel, const TaneOptions& options = TaneOptions());
};

}  // namespace limbo::fd

#endif  // LIMBO_FD_TANE_H_
