#include "core/attribute_grouping.h"

#include <algorithm>

#include "obs/counters.h"
#include "obs/trace.h"
#include "util/strings.h"

namespace limbo::core {

std::string AttributeGroupingResult::DendrogramText(
    const relation::Schema& schema) const {
  std::string out;
  for (const Merge& m : aib.merges()) {
    out += util::StrFormat(
        "  loss=%.6f  %s + %s -> %s\n", m.delta_i,
        cluster_members[m.left].ToString(schema).c_str(),
        cluster_members[m.right].ToString(schema).c_str(),
        cluster_members[m.merged].ToString(schema).c_str());
  }
  return out;
}

util::Result<AttributeGroupingResult> GroupAttributes(
    const relation::Relation& rel, const ValueClusteringResult& values,
    const AttributeGroupingOptions& options) {
  const size_t m = rel.NumAttributes();
  if (values.duplicate_groups.empty()) {
    return util::Status::FailedPrecondition(
        "CV_D is empty: no duplicate value groups to express attributes "
        "over");
  }

  // Matrix F: row per attribute of A_D, one column per CV_D group, entry
  // F[a][j] = O[c_j, a], rows normalized.
  LIMBO_OBS_SPAN(grouping_span, "attribute_grouping");
  AttributeGroupingResult result;
  std::vector<std::vector<SparseDistribution::Entry>> rows(m);
  for (size_t j = 0; j < values.duplicate_groups.size(); ++j) {
    const ValueGroup& group = values.groups[values.duplicate_groups[j]];
    for (size_t a = 0; a < m; ++a) {
      if (group.dcf.attr_counts[a] > 0) {
        rows[a].push_back({static_cast<uint32_t>(j),
                           static_cast<double>(group.dcf.attr_counts[a])});
      }
    }
  }
  for (size_t a = 0; a < m; ++a) {
    if (!rows[a].empty()) {
      result.attributes.push_back(static_cast<relation::AttributeId>(a));
    }
  }
  const size_t q = result.attributes.size();
  if (q < 2) {
    return util::Status::FailedPrecondition(
        "fewer than two attributes carry duplicate value groups");
  }

  std::vector<Dcf> objects;
  objects.reserve(q);
  for (relation::AttributeId a : result.attributes) {
    Dcf obj;
    obj.p = 1.0 / static_cast<double>(q);
    obj.cond = SparseDistribution::FromPairs(std::move(rows[a]));
    objects.push_back(std::move(obj));
  }

  AibOptions aib_options;
  aib_options.threads = options.threads;
  LIMBO_ASSIGN_OR_RETURN(result.aib, AgglomerativeIb(objects, aib_options));

  // Leaf i of the dendrogram is attribute i of A_D.
  result.cluster_members.resize(q + result.aib.merges().size());
  for (size_t i = 0; i < q; ++i) {
    result.cluster_members[i] = fd::AttributeSet::Single(result.attributes[i]);
  }
  for (const Merge& merge : result.aib.merges()) {
    result.cluster_members[merge.merged] =
        result.cluster_members[merge.left].Union(
            result.cluster_members[merge.right]);
    result.max_merge_loss = std::max(result.max_merge_loss, merge.delta_i);
  }
  // The merge sequence Q (with per-merge δI) is the information-plane
  // trajectory the run report surfaces; here just the volume.
  LIMBO_OBS_COUNT("attribute_grouping.attributes", q);
  LIMBO_OBS_COUNT("attribute_grouping.merges", result.aib.merges().size());
  return result;
}

}  // namespace limbo::core
