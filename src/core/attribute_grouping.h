#ifndef LIMBO_CORE_ATTRIBUTE_GROUPING_H_
#define LIMBO_CORE_ATTRIBUTE_GROUPING_H_

#include <string>
#include <vector>

#include "core/aib.h"
#include "core/value_clustering.h"
#include "fd/attribute_set.h"
#include "relation/relation.h"
#include "util/result.h"

namespace limbo::core {

/// Result of grouping attributes over the duplicate value groups
/// (Section 6.3): matrix F (attributes of A_D expressed over CV_D),
/// clustered agglomeratively to a full dendrogram.
struct AttributeGroupingResult {
  /// The attributes of A_D (those with support in some CV_D group),
  /// in increasing id order; leaf i of the dendrogram is attributes[i].
  std::vector<relation::AttributeId> attributes;
  /// The full agglomerative merge sequence Q over the |A_D| leaves.
  AibResult aib{0, {}};
  /// cluster_members[c] = the set of relation attributes in dendrogram
  /// cluster c (indexed by AIB cluster id: leaves then merged clusters).
  std::vector<fd::AttributeSet> cluster_members;
  /// Largest per-merge information loss in Q (max(Q) of FD-RANK).
  double max_merge_loss = 0.0;

  /// Human-readable merge list: one line per merge with the per-merge
  /// information loss — the textual form of the paper's dendrograms.
  std::string DendrogramText(const relation::Schema& schema) const;
};

/// The attributes are clustered by exact AIB (the paper's φ_A = 0): a
/// Schema holds at most 64 attributes, so there is nothing to summarize.
struct AttributeGroupingOptions {
  /// Worker lanes for AIB (0 = default lane count, 1 = serial; results
  /// bit-identical).
  size_t threads = 0;
};

/// Groups the attributes of `rel` using the duplicate value groups in
/// `values` (the F matrix of Section 6.3). Fails if CV_D is empty.
util::Result<AttributeGroupingResult> GroupAttributes(
    const relation::Relation& rel, const ValueClusteringResult& values,
    const AttributeGroupingOptions& options = AttributeGroupingOptions());

}  // namespace limbo::core

#endif  // LIMBO_CORE_ATTRIBUTE_GROUPING_H_
