#include "core/fd_rank.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "fd/min_cover.h"
#include "obs/counters.h"
#include "obs/trace.h"

namespace limbo::core {

util::Result<std::vector<RankedFd>> RankFds(
    const std::vector<fd::FunctionalDependency>& fds,
    const AttributeGroupingResult& grouping, const FdRankOptions& options) {
  if (options.psi < 0.0 || options.psi > 1.0) {
    return util::Status::InvalidArgument("psi must be in [0, 1]");
  }
  LIMBO_OBS_SPAN(rank_span, "fd_rank");
  const double max_q = grouping.max_merge_loss;
  const double cutoff = options.psi * max_q;

  // Step 1: initial rank max(Q); drop to IL(G) at the first merge where
  // all of S = X ∪ A co-reside, if IL(G) clears the ψ cutoff.
  std::vector<RankedFd> ranked;
  ranked.reserve(fds.size());
  for (const fd::FunctionalDependency& f : fds) {
    RankedFd r;
    r.fd = f;
    r.rank = max_q;
    const fd::AttributeSet s = f.lhs.Union(f.rhs);
    for (const Merge& merge : grouping.aib.merges()) {
      if (s.IsSubsetOf(grouping.cluster_members[merge.merged])) {
        if (merge.delta_i <= cutoff + 1e-12) {
          r.rank = merge.delta_i;
          r.anchored = true;
        }
        break;  // first co-residence decides
      }
    }
    ranked.push_back(r);
    if (r.anchored) LIMBO_OBS_COUNT("fd_rank.anchored", 1);
  }
  LIMBO_OBS_COUNT("fd_rank.fds_ranked", ranked.size());

  // Step 2: collapse same-antecedent FDs with equal rank. Ranks are
  // quantized so that two merges whose losses differ only by floating-
  // point noise (e.g. two exactly-duplicated value groups) compare equal.
  auto quantize = [](double rank) {
    return static_cast<int64_t>(std::llround(rank * 1e9));
  };
  struct Key {
    uint64_t lhs;
    int64_t rank;
    bool operator<(const Key& o) const {
      if (lhs != o.lhs) return lhs < o.lhs;
      return rank < o.rank;
    }
  };
  std::map<Key, RankedFd> collapsed;
  for (const RankedFd& r : ranked) {
    const Key key{r.fd.lhs.bits(), quantize(r.rank)};
    auto it = collapsed.find(key);
    if (it == collapsed.end()) {
      collapsed.emplace(key, r);
    } else {
      it->second.fd.rhs = it->second.fd.rhs.Union(r.fd.rhs);
      it->second.anchored = it->second.anchored || r.anchored;
    }
  }

  // Step 3: ascending rank; ties prefer wider FDs, then canonical order.
  std::vector<RankedFd> out;
  out.reserve(collapsed.size());
  for (const auto& [key, r] : collapsed) out.push_back(r);
  std::sort(out.begin(), out.end(), [&](const RankedFd& a, const RankedFd& b) {
    if (quantize(a.rank) != quantize(b.rank)) return a.rank < b.rank;
    const size_t wa = a.fd.lhs.Count() + a.fd.rhs.Count();
    const size_t wb = b.fd.lhs.Count() + b.fd.rhs.Count();
    if (wa != wb) return wa > wb;
    if (a.fd.lhs.bits() != b.fd.lhs.bits()) {
      return a.fd.lhs.bits() < b.fd.lhs.bits();
    }
    return a.fd.rhs.bits() < b.fd.rhs.bits();
  });
  return out;
}

util::Result<std::vector<RankedFd>> RankCover(
    const std::vector<fd::FunctionalDependency>& fds,
    const AttributeGroupingResult* grouping, const FdRankOptions& options) {
  const auto cover = fd::MinimumCover(fds, /*merge_same_lhs=*/false);
  if (grouping != nullptr) return RankFds(cover, *grouping, options);
  std::vector<RankedFd> ranked;
  ranked.reserve(cover.size());
  for (const fd::FunctionalDependency& f : cover) {
    ranked.push_back({f, 0.0, false});
  }
  return ranked;
}

}  // namespace limbo::core
