#include "fd/fd.h"

#include <algorithm>
#include <cstdint>

#include "relation/ops.h"

namespace limbo::fd {

bool Holds(const relation::Relation& rel, const FunctionalDependency& f) {
  const auto rhs = f.rhs.ToList();
  if (rhs.empty()) return true;
  const relation::RowGroups groups = relation::GroupRows(rel, f.lhs.ToList());
  for (relation::TupleId t = 0; t < rel.NumTuples(); ++t) {
    const relation::TupleId first = groups.first[groups.group[t]];
    for (relation::AttributeId a : rhs) {
      if (rel.At(t, a) != rel.At(first, a)) return false;
    }
  }
  return true;
}

double G3Error(const relation::Relation& rel, const FunctionalDependency& f) {
  const size_t n = rel.NumTuples();
  if (n == 0 || f.rhs.Empty()) return 0.0;
  // Each X-group keeps its largest X∪Y-group; the rest must be removed.
  const relation::RowGroups x = relation::GroupRows(rel, f.lhs.ToList());
  const relation::RowGroups xy =
      relation::GroupRows(rel, f.lhs.Union(f.rhs).ToList());
  std::vector<uint64_t> best(x.NumGroups(), 0);
  for (size_t g = 0; g < xy.NumGroups(); ++g) {
    uint64_t& b = best[x.group[xy.first[g]]];
    b = std::max(b, xy.size[g]);
  }
  uint64_t kept = 0;
  for (uint64_t b : best) kept += b;
  return static_cast<double>(n - kept) / static_cast<double>(n);
}

void SortCanonically(std::vector<FunctionalDependency>* fds) {
  std::sort(fds->begin(), fds->end(),
            [](const FunctionalDependency& a, const FunctionalDependency& b) {
              if (a.lhs.bits() != b.lhs.bits()) {
                return a.lhs.bits() < b.lhs.bits();
              }
              return a.rhs.bits() < b.rhs.bits();
            });
}

}  // namespace limbo::fd
