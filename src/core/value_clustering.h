#ifndef LIMBO_CORE_VALUE_CLUSTERING_H_
#define LIMBO_CORE_VALUE_CLUSTERING_H_

#include <vector>

#include "core/limbo.h"
#include "relation/relation.h"
#include "util/result.h"

namespace limbo::core {

/// Builds the attribute-value objects of Section 6.2 — the rows of matrix
/// N extended with their O-matrix row as ADCF counts. Value v has prior
/// p(v) = 1/d, conditional p(T|v) uniform (1/d_v) over the tuples it
/// occurs in, and attr_counts[a] = d_v at its own attribute (0 elsewhere).
std::vector<Dcf> BuildValueObjects(const relation::Relation& rel);

/// Double Clustering (Section 6.2): values expressed over tuple *clusters*
/// rather than tuples. `tuple_labels[t]` is the cluster of tuple t;
/// p(c|v) = (occurrences of v in cluster c) / d_v.
std::vector<Dcf> BuildValueObjectsOverTupleClusters(
    const relation::Relation& rel, const std::vector<uint32_t>& tuple_labels,
    size_t num_tuple_clusters);

struct ValueClusteringOptions {
  /// φ_V: 0.0 groups only perfectly co-occurring values; > 0 tolerates
  /// "almost" perfect co-occurrence (entry errors).
  double phi_v = 0.0;
  /// Optional Double Clustering input: when non-null, values are expressed
  /// over these tuple-cluster labels (`num_tuple_clusters` many).
  const std::vector<uint32_t>* tuple_labels = nullptr;
  size_t num_tuple_clusters = 0;
};

/// A group of co-occurring attribute values (one Phase-1 leaf ADCF).
struct ValueGroup {
  /// Member value ids, recovered by Phase-3 association.
  std::vector<relation::ValueId> values;
  /// The group's ADCF: conditional over tuples (or tuple clusters) and
  /// the summed O-matrix row in attr_counts.
  Dcf dcf;
  /// True iff the group belongs to CV_D: it occurs in at least two tuples
  /// and spans at least two attributes (Section 6.3).
  bool is_duplicate = false;
};

struct ValueClusteringResult {
  std::vector<ValueGroup> groups;
  /// Indices into `groups` of the CV_D members.
  std::vector<size_t> duplicate_groups;
  double mutual_information = 0.0;
  double threshold = 0.0;
};

/// Runs the three passes of Section 6.2: build N and O, Phase 1 at φ_V,
/// and Phase 3 association of every value with its closest leaf ADCF.
util::Result<ValueClusteringResult> ClusterValues(
    const relation::Relation& rel, const ValueClusteringOptions& options);

}  // namespace limbo::core

#endif  // LIMBO_CORE_VALUE_CLUSTERING_H_
