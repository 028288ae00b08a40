#ifndef LIMBO_CORE_INFORMATION_CONTENT_H_
#define LIMBO_CORE_INFORMATION_CONTENT_H_

#include <string>
#include <vector>

#include "fd/fd.h"
#include "relation/relation.h"
#include "util/result.h"

namespace limbo::core {

/// Instance-level redundancy in the sense of the paper's Figure 1 (and of
/// the Arenas–Libkin information-content view it builds on): a cell
/// (t, A) is *redundant* w.r.t. a set of FDs if some FD X → A and some
/// other tuple t' agreeing with t on X pin the value down — erase it and
/// it is still inferable.
///
/// In Figure 1, with Ename → City, the value Boston is redundant in t2
/// (inferable from t1) but not in t3; with Zip → City instead, the
/// situation reverses. That example is a unit test of this module.
struct CellRedundancy {
  relation::TupleId tuple;
  relation::AttributeId attribute;
  /// Index (into the FD list given to AnalyzeInformationContent) of a
  /// witness FD that makes the cell inferable.
  size_t witness_fd;
};

struct InformationContent {
  size_t total_cells = 0;
  size_t redundant_cells = 0;
  /// 1 − redundant/total: the fraction of cells that carry information
  /// not implied elsewhere. 1.0 = fully normalized w.r.t. the FDs.
  double content = 1.0;
  /// Every redundant cell with its first witness FD, ordered by that FD,
  /// then tuple, then attribute.
  std::vector<CellRedundancy> cells;
};

/// Flags every cell made inferable by `fds` (each FD must hold in `rel`;
/// an FD that does not hold is rejected, since "inference" from a broken
/// dependency is not sound).
util::Result<InformationContent> AnalyzeInformationContent(
    const relation::Relation& rel,
    const std::vector<fd::FunctionalDependency>& fds);

}  // namespace limbo::core

#endif  // LIMBO_CORE_INFORMATION_CONTENT_H_
