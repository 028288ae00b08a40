#include "core/structure_summary.h"

#include <algorithm>

#include "core/limbo.h"
#include "core/measures.h"
#include "obs/trace.h"
#include "fd/tane.h"
#include "util/strings.h"

namespace limbo::core {

util::Result<StructureSummary> SummarizeStructure(
    const relation::Relation& rel, const StructureSummaryOptions& options) {
  if (rel.NumTuples() == 0) {
    return util::Status::InvalidArgument("relation is empty");
  }
  LIMBO_OBS_SPAN(summary_span, "structure_summary");
  StructureSummary summary;
  {
    LIMBO_OBS_SPAN(profile_span, "profile");
    summary.profile = relation::Profile(rel);
  }

  const bool large = rel.NumTuples() > options.large_relation_threshold;

  // Duplicate tuples.
  DuplicateTupleOptions dup_options;
  dup_options.phi_t = options.phi_t;
  LIMBO_ASSIGN_OR_RETURN(summary.duplicates,
                         FindDuplicateTuples(rel, dup_options));

  // Value clustering, with Double Clustering on large inputs.
  ValueClusteringOptions value_options;
  value_options.phi_v = options.phi_v;
  std::vector<uint32_t> labels;
  size_t num_clusters = 0;
  if (large) {
    LIMBO_OBS_SPAN(dc_span, "double_clustering");
    const std::vector<Dcf> objects = BuildTupleObjects(rel);
    LimboOptions limbo_options;
    limbo_options.phi = options.phi_t_double_clustering;
    VectorDcfStream stream(objects);
    LIMBO_ASSIGN_OR_RETURN(Phase1Summary phase1,
                           SummarizePhase1(stream, limbo_options));
    LIMBO_ASSIGN_OR_RETURN(labels, LimboPhase3(objects, phase1.leaves));
    num_clusters = phase1.leaves.size();
    value_options.tuple_labels = &labels;
    value_options.num_tuple_clusters = num_clusters;
  }
  LIMBO_ASSIGN_OR_RETURN(summary.values, ClusterValues(rel, value_options));

  // Attribute grouping (when CV_D is non-empty).
  if (!summary.values.duplicate_groups.empty()) {
    auto grouping = GroupAttributes(rel, summary.values);
    if (grouping.ok()) {
      summary.grouping = std::move(grouping).value();
      summary.has_grouping = true;
    }
  }

  // FD mining + minimum cover + ranking.
  std::vector<fd::FunctionalDependency> fds;
  {
    LIMBO_OBS_SPAN(mine_span, "fd_mining");
    LIMBO_ASSIGN_OR_RETURN(fds, fd::Tane::Mine(rel));
  }
  summary.num_fds = fds.size();
  FdRankOptions rank_options;
  rank_options.psi = options.psi;
  LIMBO_ASSIGN_OR_RETURN(
      summary.ranked_cover,
      RankCover(fds, summary.has_grouping ? &summary.grouping : nullptr,
                rank_options));
  return summary;
}

std::string StructureSummary::ToString(const relation::Relation& rel) const {
  std::string out;
  out += "=== Profile ===\n";
  out += profile.ToString();

  out += util::StrFormat(
      "\n=== Duplicate tuples (phi summaries: %zu leaves, %zu heavy) ===\n",
      duplicates.num_leaves, duplicates.num_heavy_leaves);
  if (duplicates.groups.empty()) {
    out += "  none found\n";
  }
  for (size_t g = 0; g < duplicates.groups.size() && g < 10; ++g) {
    out += "  group:";
    for (relation::TupleId t : duplicates.groups[g].tuples) {
      out += util::StrFormat(" t%u", t);
    }
    out += "\n";
  }

  out += util::StrFormat(
      "\n=== Value groups: %zu total, %zu duplicate (CV_D) ===\n",
      values.groups.size(), values.duplicate_groups.size());
  size_t shown = 0;
  for (size_t gi : values.duplicate_groups) {
    if (++shown > 10) break;
    out += "  {";
    const auto& group = values.groups[gi];
    for (size_t i = 0; i < group.values.size() && i < 6; ++i) {
      if (i) out += ", ";
      out += rel.dictionary().QualifiedName(rel.schema(), group.values[i]);
    }
    if (group.values.size() > 6) out += ", ...";
    out += "}\n";
  }

  if (has_grouping) {
    out += "\n=== Attribute dendrogram ===\n";
    out += grouping.DendrogramText(rel.schema());
  }

  out += util::StrFormat("\n=== Dependencies: %zu mined; ranked cover ===\n",
                         num_fds);
  shown = 0;
  for (const RankedFd& r : ranked_cover) {
    if (++shown > 12) break;
    const auto attrs = r.fd.lhs.Union(r.fd.rhs).ToList();
    out += util::StrFormat("  rank=%.4f%s %s  RAD=%.3f RTR=%.3f\n", r.rank,
                           r.anchored ? "*" : " ",
                           r.fd.ToString(rel.schema()).c_str(),
                           Rad(rel, attrs), Rtr(rel, attrs));
  }
  return out;
}

}  // namespace limbo::core
