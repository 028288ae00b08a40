#include "core/information_content.h"

#include "relation/ops.h"

namespace limbo::core {

using relation::AttributeId;
using relation::TupleId;

util::Result<InformationContent> AnalyzeInformationContent(
    const relation::Relation& rel,
    const std::vector<fd::FunctionalDependency>& fds) {
  const size_t n = rel.NumTuples();
  const size_t m = rel.NumAttributes();
  InformationContent result;
  result.total_cells = n * m;

  // redundant[t*m + a] = true once witnessed.
  std::vector<bool> redundant(n * m, false);

  for (size_t fi = 0; fi < fds.size(); ++fi) {
    const fd::FunctionalDependency& f = fds[fi];
    if (!fd::Holds(rel, f)) {
      return util::Status::FailedPrecondition(
          "FD does not hold; cannot use it for inference: " +
          f.ToString(rel.schema()));
    }
    const std::vector<AttributeId> lhs = f.lhs.ToList();
    const std::vector<AttributeId> rhs = f.rhs.Minus(f.lhs).ToList();
    if (rhs.empty()) continue;
    // Within an LHS group of size >= 2, every RHS cell is inferable from
    // any *other* member, so all of them are redundant. (With the empty
    // LHS, every tuple is in one group: a constant column of n >= 2 rows
    // is redundant everywhere.)
    const relation::RowGroups groups = relation::GroupRows(rel, lhs);
    for (TupleId t = 0; t < n; ++t) {
      if (groups.size[groups.group[t]] < 2) continue;
      for (AttributeId a : rhs) {
        const size_t idx = static_cast<size_t>(t) * m + a;
        if (!redundant[idx]) {
          redundant[idx] = true;
          result.cells.push_back({t, a, fi});
        }
      }
    }
  }

  result.redundant_cells = result.cells.size();
  result.content =
      result.total_cells == 0
          ? 1.0
          : 1.0 - static_cast<double>(result.redundant_cells) /
                      static_cast<double>(result.total_cells);
  return result;
}

}  // namespace limbo::core
