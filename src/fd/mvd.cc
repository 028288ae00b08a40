#include "fd/mvd.h"

#include <algorithm>
#include <span>
#include <unordered_set>

#include "relation/ops.h"

namespace limbo::fd {

using relation::AttributeId;
using relation::TupleId;

bool HoldsMvd(const relation::Relation& rel,
              const MultiValuedDependency& mvd) {
  const size_t m = rel.NumAttributes();
  const AttributeSet all = AttributeSet::Full(m);
  const AttributeSet y = mvd.rhs.Minus(mvd.lhs);
  const AttributeSet z = all.Minus(mvd.lhs).Minus(y);
  if (y.Empty() || z.Empty()) return true;  // trivial MVD

  const std::vector<AttributeId> y_list = y.ToList();
  const std::vector<AttributeId> z_list = z.ToList();
  const std::vector<AttributeId> yz_list = y.Union(z).ToList();

  // Lay the tuples out X-group by X-group (a counting sort on group id).
  const relation::RowGroups x = relation::GroupRows(rel, mvd.lhs.ToList());
  std::vector<size_t> offset(x.NumGroups() + 1, 0);
  for (size_t g = 0; g < x.NumGroups(); ++g) {
    offset[g + 1] = offset[g] + x.size[g];
  }
  std::vector<TupleId> order(rel.NumTuples());
  std::vector<size_t> fill(offset.begin(), offset.end() - 1);
  for (TupleId t = 0; t < rel.NumTuples(); ++t) order[fill[x.group[t]]++] = t;

  // Within each X-group the Y- and Z-projections must combine as a full
  // cross product: |YZ| == |Y| * |Z|, which holds trivially when Y or Z
  // is constant on the group.
  for (size_t g = 0; g < x.NumGroups(); ++g) {
    if (x.size[g] < 2) continue;
    const std::span<const TupleId> group(order.data() + offset[g], x.size[g]);
    const size_t ys = relation::GroupRows(rel, y_list, group).NumGroups();
    if (ys == 1) continue;
    const size_t zs = relation::GroupRows(rel, z_list, group).NumGroups();
    if (zs == 1) continue;
    if (relation::GroupRows(rel, yz_list, group).NumGroups() != ys * zs) {
      return false;
    }
  }
  return true;
}

util::Result<std::vector<MultiValuedDependency>> MineMvds(
    const relation::Relation& rel, const MvdMinerOptions& options) {
  std::vector<MultiValuedDependency> found;
  const size_t m = rel.NumAttributes();
  if (rel.NumTuples() < 2 || m < 3) return found;  // no non-trivial MVDs

  // Enumerate LHS sets up to max_lhs (m <= 64, levels are small for the
  // default bound), minimal-LHS pruning per RHS attribute.
  std::vector<std::vector<AttributeSet>> minimal_lhs(m);
  auto dominated = [&](AttributeSet x, size_t a) {
    for (AttributeSet seen : minimal_lhs[a]) {
      if (seen.IsSubsetOf(x)) return true;
    }
    return false;
  };

  std::vector<AttributeSet> level = {AttributeSet()};
  for (size_t ell = 0; ell <= options.max_lhs; ++ell) {
    for (AttributeSet x : level) {
      for (size_t a = 0; a < m; ++a) {
        const auto attr = static_cast<AttributeId>(a);
        if (x.Contains(attr) || dominated(x, a)) continue;
        // Need a non-empty complement Z.
        if (x.Count() + 2 > m) continue;
        const MultiValuedDependency candidate{x, AttributeSet::Single(attr)};
        if (!HoldsMvd(rel, candidate)) continue;
        if (options.skip_implied_by_fd &&
            Holds(rel, {x, AttributeSet::Single(attr)})) {
          // Implied by the FD X → A; still blocks supersets from being
          // reported as minimal.
          minimal_lhs[a].push_back(x);
          continue;
        }
        found.push_back(candidate);
        minimal_lhs[a].push_back(x);
      }
    }
    if (ell == options.max_lhs) break;
    // Next level: extend each X by one attribute (dedup).
    std::unordered_set<AttributeSet> next;
    for (AttributeSet x : level) {
      for (size_t a = 0; a < m; ++a) {
        const auto attr = static_cast<AttributeId>(a);
        if (!x.Contains(attr)) next.insert(x.With(attr));
      }
    }
    level.assign(next.begin(), next.end());
    std::sort(level.begin(), level.end());
  }

  std::sort(found.begin(), found.end(),
            [](const MultiValuedDependency& a, const MultiValuedDependency& b) {
              if (a.lhs.bits() != b.lhs.bits()) {
                return a.lhs.bits() < b.lhs.bits();
              }
              return a.rhs.bits() < b.rhs.bits();
            });
  return found;
}

}  // namespace limbo::fd
