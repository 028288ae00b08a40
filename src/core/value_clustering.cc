#include "core/value_clustering.h"

#include <algorithm>
#include <unordered_map>

#include "obs/counters.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace limbo::core {

std::vector<Dcf> BuildValueObjects(const relation::Relation& rel) {
  const size_t d = rel.NumValues();
  const size_t m = rel.NumAttributes();
  const auto postings = rel.BuildValuePostings();
  std::vector<Dcf> objects;
  objects.reserve(d);
  for (relation::ValueId v = 0; v < d; ++v) {
    Dcf obj;
    obj.p = 1.0 / static_cast<double>(d);
    obj.cond = SparseDistribution::UniformOver(postings[v]);
    obj.attr_counts.assign(m, 0);
    obj.attr_counts[rel.dictionary().Attribute(v)] = postings[v].size();
    objects.push_back(std::move(obj));
  }
  return objects;
}

std::vector<Dcf> BuildValueObjectsOverTupleClusters(
    const relation::Relation& rel, const std::vector<uint32_t>& tuple_labels,
    size_t num_tuple_clusters) {
  LIMBO_CHECK(tuple_labels.size() == rel.NumTuples());
  const size_t d = rel.NumValues();
  const size_t m = rel.NumAttributes();
  const auto postings = rel.BuildValuePostings();
  std::vector<Dcf> objects;
  objects.reserve(d);
  for (relation::ValueId v = 0; v < d; ++v) {
    Dcf obj;
    obj.p = 1.0 / static_cast<double>(d);
    // Count occurrences per tuple cluster.
    std::unordered_map<uint32_t, double> counts;
    for (relation::TupleId t : postings[v]) {
      LIMBO_CHECK(tuple_labels[t] < num_tuple_clusters);
      counts[tuple_labels[t]] += 1.0;
    }
    std::vector<SparseDistribution::Entry> entries;
    entries.reserve(counts.size());
    for (const auto& [cluster, count] : counts) {
      entries.push_back({cluster, count});
    }
    obj.cond = SparseDistribution::FromPairs(std::move(entries));
    obj.attr_counts.assign(m, 0);
    obj.attr_counts[rel.dictionary().Attribute(v)] = postings[v].size();
    objects.push_back(std::move(obj));
  }
  return objects;
}

util::Result<ValueClusteringResult> ClusterValues(
    const relation::Relation& rel, const ValueClusteringOptions& options) {
  if (rel.NumTuples() == 0) {
    return util::Status::InvalidArgument("relation is empty");
  }
  LIMBO_OBS_SPAN(values_span, "value_clustering");
  const bool double_clustered = options.tuple_labels != nullptr;
  const std::vector<Dcf> objects =
      double_clustered
          ? BuildValueObjectsOverTupleClusters(rel, *options.tuple_labels,
                                               options.num_tuple_clusters)
          : BuildValueObjects(rel);
  const size_t d = objects.size();

  LimboOptions limbo_options;
  limbo_options.phi = options.phi_v;
  VectorDcfStream stream(objects);
  LIMBO_ASSIGN_OR_RETURN(Phase1Summary phase1,
                         SummarizePhase1(stream, limbo_options));
  ValueClusteringResult result;
  result.mutual_information = phase1.mutual_information;
  result.threshold = phase1.threshold;
  const std::vector<Dcf>& leaves = phase1.leaves;

  // Phase 3: associate every value with its closest leaf.
  LIMBO_ASSIGN_OR_RETURN(std::vector<uint32_t> labels,
                         LimboPhase3(objects, leaves));

  result.groups.resize(leaves.size());
  for (size_t g = 0; g < leaves.size(); ++g) {
    result.groups[g].dcf = leaves[g];
  }
  for (relation::ValueId v = 0; v < d; ++v) {
    result.groups[labels[v]].values.push_back(v);
  }

  // CV_D classification: >= 2 tuples and >= 2 attributes.
  for (size_t g = 0; g < result.groups.size(); ++g) {
    ValueGroup& group = result.groups[g];
    size_t attrs_present = 0;
    uint64_t occurrences = 0;
    for (uint64_t c : group.dcf.attr_counts) {
      if (c > 0) ++attrs_present;
      occurrences += c;
    }
    const bool multi_tuple = double_clustered
                                 ? occurrences >= 2
                                 : group.dcf.cond.SupportSize() >= 2;
    group.is_duplicate = multi_tuple && attrs_present >= 2;
    if (group.is_duplicate) result.duplicate_groups.push_back(g);
  }
  LIMBO_OBS_COUNT("value_clustering.values", d);
  LIMBO_OBS_COUNT("value_clustering.groups", result.groups.size());
  LIMBO_OBS_COUNT("value_clustering.cvd_groups",
                  result.duplicate_groups.size());
  return result;
}

}  // namespace limbo::core
