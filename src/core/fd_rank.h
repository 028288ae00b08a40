#ifndef LIMBO_CORE_FD_RANK_H_
#define LIMBO_CORE_FD_RANK_H_

#include <vector>

#include "core/attribute_grouping.h"
#include "fd/fd.h"
#include "util/result.h"

namespace limbo::core {

/// An FD with its FD-RANK score. Lower rank = more redundancy removed by a
/// decomposition on this dependency = more interesting.
struct RankedFd {
  fd::FunctionalDependency fd;
  double rank = 0.0;
  /// True iff a qualifying merge G was found (rank < max(Q)); false means
  /// the FD kept the default rank max(Q).
  bool anchored = false;
};

struct FdRankOptions {
  /// ψ ∈ [0, 1]: a merge G qualifies only if IL(G) <= ψ · max(Q).
  double psi = 0.5;
};

/// The FD-RANK algorithm (Figure 11):
///  1. every FD starts at rank max(Q) (the largest merge loss in the
///     attribute dendrogram); if the attributes S = X ∪ A first become
///     co-clustered at a merge G with IL(G) <= ψ·max(Q), the rank drops
///     to IL(G);
///  2. FDs with equal antecedent and equal rank are collapsed into one
///     X → A1 A2 ...;
///  3. the result is sorted by ascending rank, ties broken in favour of
///     FDs with more attributes (paper: "we rank the ones with more
///     attributes higher"), then canonically.
util::Result<std::vector<RankedFd>> RankFds(
    const std::vector<fd::FunctionalDependency>& fds,
    const AttributeGroupingResult& grouping,
    const FdRankOptions& options = FdRankOptions());

/// The ranked cover of mined FDs: their minimum cover (one RHS attribute
/// each), ranked by RankFds against `grouping`, or, when there is no
/// attribute dendrogram (`grouping` null), each cover FD at rank 0,
/// unanchored, in cover order.
util::Result<std::vector<RankedFd>> RankCover(
    const std::vector<fd::FunctionalDependency>& fds,
    const AttributeGroupingResult* grouping, const FdRankOptions& options);

}  // namespace limbo::core

#endif  // LIMBO_CORE_FD_RANK_H_
