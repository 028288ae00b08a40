#ifndef LIMBO_CORE_STRUCTURE_SUMMARY_H_
#define LIMBO_CORE_STRUCTURE_SUMMARY_H_

#include <string>
#include <vector>

#include "core/attribute_grouping.h"
#include "core/fd_rank.h"
#include "core/tuple_clustering.h"
#include "core/value_clustering.h"
#include "relation/stats.h"
#include "util/result.h"

namespace limbo::core {

/// One-call configuration for the full structure-discovery pipeline.
struct StructureSummaryOptions {
  /// Tuple-clustering accuracy for duplicate detection.
  double phi_t = 0.1;
  /// Value-clustering accuracy (0 = perfect co-occurrence only).
  double phi_v = 0.0;
  /// FD-RANK threshold.
  double psi = 0.5;
  /// Above this tuple count, the value stage uses Double Clustering.
  static constexpr size_t large_relation_threshold = 2000;
  /// φ_T for the Double-Clustering tuple summaries on large relations.
  static constexpr double phi_t_double_clustering = 0.5;
};

/// Everything the paper's tools derive from one relation — the compact
/// summary an analyst would browse (Sections 6-7 in one object).
struct StructureSummary {
  relation::RelationProfile profile;
  DuplicateTupleReport duplicates;
  ValueClusteringResult values;
  /// Present only when CV_D is non-empty.
  bool has_grouping = false;
  AttributeGroupingResult grouping;
  size_t num_fds = 0;
  std::vector<RankedFd> ranked_cover;

  /// Full analyst report as text.
  std::string ToString(const relation::Relation& rel) const;
};

/// Runs profiling, duplicate-tuple detection, value clustering (with
/// Double Clustering on large inputs), attribute grouping, FD discovery
/// (TANE at min_lhs = 0, so a constant column C yields ∅ → C at any size),
/// minimum cover and FD-RANK.
util::Result<StructureSummary> SummarizeStructure(
    const relation::Relation& rel,
    const StructureSummaryOptions& options = StructureSummaryOptions());

}  // namespace limbo::core

#endif  // LIMBO_CORE_STRUCTURE_SUMMARY_H_
