#ifndef LIMBO_FD_FDEP_H_
#define LIMBO_FD_FDEP_H_

#include <vector>

#include "fd/fd.h"
#include "util/result.h"

namespace limbo::fd {

/// FDEP (Savnik & Flach, 1993): bottom-up FD induction.
///
/// 1. The *negative cover* is computed by pairwise tuple comparison: every
///    pair (t_i, t_j) yields an agree-set ag(t_i, t_j); any X → A with
///    X ⊆ ag and A ∉ ag is invalid.
/// 2. The *positive cover* (minimal valid FDs) follows from the negative
///    cover: X → A is valid iff X ⊈ ag for every agree-set ag with A ∉ ag,
///    i.e. X hits every difference set R \ ag \ {A}. Minimal LHSs are the
///    minimal hitting sets, found by depth-first search (the paper's
///    "depth-first search ... used to test whether a functional dependency
///    holds and prune the search space").
///
/// Pairwise comparison is O(n^2 m); intended for relations up to a few
/// thousand tuples (the paper runs it on a 90-tuple relation). Production
/// mines with Tane (tane.h) at every size; FDEP is the reference it is
/// checked against — at equal min_lhs both return the same list.
struct FdepOptions {
  /// Safety valve on the O(n^2) pair scan.
  size_t max_tuples = 20000;
  /// Minimum LHS size. With the default 0, a constant attribute A yields
  /// ∅ → A; with 1, it yields [B] → A for every other attribute B —
  /// matching the behaviour of the original FDEP on the paper's NULL-
  /// saturated DBLP partitions (Table 5 reports [Volume]→[Journal], not
  /// ∅→[Journal]).
  size_t min_lhs = 0;
};

class Fdep {
 public:
  /// All minimal exact FDs (single-attribute RHS) holding in `rel`,
  /// canonically sorted.
  static util::Result<std::vector<FunctionalDependency>> Mine(
      const relation::Relation& rel, const FdepOptions& options = FdepOptions());

  /// The distinct agree-sets of `rel` (exposed for tests and for the
  /// paper's negative-cover discussion).
  static std::vector<AttributeSet> AgreeSets(const relation::Relation& rel);
};

}  // namespace limbo::fd

#endif  // LIMBO_FD_FDEP_H_
