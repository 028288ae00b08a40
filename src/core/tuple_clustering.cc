#include "core/tuple_clustering.h"

#include <algorithm>

#include "obs/counters.h"
#include "obs/trace.h"

namespace limbo::core {

std::vector<Dcf> BuildTupleObjects(const relation::Relation& rel) {
  const size_t n = rel.NumTuples();
  std::vector<Dcf> objects;
  objects.reserve(n);
  for (relation::TupleId t = 0; t < n; ++t) {
    Dcf d;
    d.p = 1.0 / static_cast<double>(n);
    // A tuple may repeat a value id across attributes only if two columns
    // share the same (attribute, text) pair — impossible since values are
    // attribute-qualified, so the row is always m distinct ids.
    d.cond = SparseDistribution::UniformOver(rel.Row(t));
    objects.push_back(std::move(d));
  }
  return objects;
}

util::Result<DuplicateTupleReport> FindDuplicateTuples(
    const relation::Relation& rel, const DuplicateTupleOptions& options) {
  const size_t n = rel.NumTuples();
  if (n == 0) {
    return util::Status::InvalidArgument("relation is empty");
  }
  LIMBO_OBS_SPAN(dup_span, "tuple_clustering");
  const std::vector<Dcf> objects = BuildTupleObjects(rel);

  LimboOptions limbo_options;
  limbo_options.phi = options.phi_t;
  VectorDcfStream stream(objects);
  LIMBO_ASSIGN_OR_RETURN(Phase1Summary phase1,
                         SummarizePhase1(stream, limbo_options));
  DuplicateTupleReport report;
  report.mutual_information = phase1.mutual_information;
  report.threshold = phase1.threshold;
  report.num_leaves = phase1.leaves.size();

  // Heavy summaries: leaves that absorbed more than one tuple.
  std::vector<Dcf> heavy;
  const double single = 1.0 / static_cast<double>(n);
  for (const Dcf& leaf : phase1.leaves) {
    if (leaf.p > single * 1.5) heavy.push_back(leaf);
  }
  report.num_heavy_leaves = heavy.size();
  if (heavy.empty()) return report;

  std::vector<double> losses;
  LIMBO_ASSIGN_OR_RETURN(std::vector<uint32_t> labels,
                         LimboPhase3(objects, heavy, &losses));
  std::vector<DuplicateTupleGroup> groups(heavy.size());
  for (size_t g = 0; g < heavy.size(); ++g) {
    groups[g].summary_mass = heavy[g].p;
  }
  const double accept =
      options.association_margin * report.threshold + 1e-12;
  uint64_t accepted = 0;
  for (relation::TupleId t = 0; t < n; ++t) {
    if (losses[t] <= accept) {
      groups[labels[t]].tuples.push_back(t);
      ++accepted;
    }
  }
  // The Phase-3 scan assigns every tuple somewhere; the association
  // margin then rejects loose fits back to singleton status.
  LIMBO_OBS_COUNT("tuple_clustering.assigned", accepted);
  LIMBO_OBS_COUNT("tuple_clustering.rejected", n - accepted);
  for (DuplicateTupleGroup& g : groups) {
    if (g.tuples.size() >= 2) report.groups.push_back(std::move(g));
  }
  std::sort(report.groups.begin(), report.groups.end(),
            [](const DuplicateTupleGroup& a, const DuplicateTupleGroup& b) {
              return a.tuples.size() > b.tuples.size();
            });
  return report;
}

}  // namespace limbo::core
