#ifndef LIMBO_CORE_TUPLE_CLUSTERING_H_
#define LIMBO_CORE_TUPLE_CLUSTERING_H_

#include <vector>

#include "core/limbo.h"
#include "relation/relation.h"
#include "util/result.h"

namespace limbo::core {

/// Builds the tuple objects of Section 6.1 (the rows of matrix M):
/// object t has prior p(t) = 1/n and conditional p(V|t) uniform (1/m)
/// over the tuple's m attribute values.
std::vector<Dcf> BuildTupleObjects(const relation::Relation& rel);

/// Parameters for duplicate-tuple detection (Section 6.1.1).
struct DuplicateTupleOptions {
  /// φ_T: accuracy of the Phase-1 summaries. 0.0 finds exact duplicates;
  /// larger values tolerate more differing attribute values.
  double phi_t = 0.1;
  /// A tuple joins a summary's group only if its association loss is at
  /// most `association_margin` × the Phase-1 threshold — without this,
  /// Phase 3 would drag every tuple into *some* group. The margin > 1
  /// allows for the summary's conditional drifting as it absorbs tuples.
  double association_margin = 2.0;
};

/// A group of (near-)duplicate tuples: every tuple whose closest heavy
/// summary (leaf DCF with p > 1/n) is the same.
struct DuplicateTupleGroup {
  std::vector<relation::TupleId> tuples;
  /// Prior mass of the group's summary DCF.
  double summary_mass = 0.0;
};

struct DuplicateTupleReport {
  /// Groups with >= 2 associated tuples, largest first.
  std::vector<DuplicateTupleGroup> groups;
  double mutual_information = 0.0;
  double threshold = 0.0;
  size_t num_leaves = 0;
  size_t num_heavy_leaves = 0;
};

/// The paper's three-step duplicate-tuple procedure: Phase 1 at φ_T,
/// retain leaf summaries with p(c*) > 1/n, Phase 3 to associate every
/// tuple with its closest heavy summary.
util::Result<DuplicateTupleReport> FindDuplicateTuples(
    const relation::Relation& rel, const DuplicateTupleOptions& options);

}  // namespace limbo::core

#endif  // LIMBO_CORE_TUPLE_CLUSTERING_H_
