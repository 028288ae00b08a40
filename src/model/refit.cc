#include "model/refit.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "core/aib.h"
#include "core/attribute_grouping.h"
#include "core/fd_rank.h"
#include "core/limbo.h"
#include "core/value_clustering.h"
#include "fd/closure.h"
#include "fd/tane.h"
#include "obs/counters.h"
#include "obs/trace.h"
#include "schemes/entropy_oracle.h"
#include "util/strings.h"

namespace limbo::model {

namespace {

// Ratio cap for the degenerate case where the parent's mean fit loss is
// zero but the new rows lose mass — "infinitely worse than fit time",
// kept finite so it serializes and prints cleanly.
constexpr double kMaxDriftScore = 1e9;

DriftClass Classify(double score, const RefitOptions& options) {
  if (score < options.drift_moderate) return DriftClass::kNone;
  if (score < options.drift_severe) return DriftClass::kModerate;
  return DriftClass::kSevere;
}

/// Second drift signal: per-attribute value entropies of the absorbed
/// rows (one schemes::EntropyOracle pass over the Reset source) against
/// the same entropies recovered from the parent's frozen dictionary
/// supports (per-attribute occurrence counts over parent.num_rows). The
/// loss-based score watches the clustering; this watches the marginals.
util::Result<double> EntropyDrift(const ModelBundle& parent,
                                  relation::RowSource& rows,
                                  size_t threads) {
  LIMBO_RETURN_IF_ERROR(rows.Reset());
  schemes::EntropyOracleOptions oracle_options;
  oracle_options.threads = threads;
  schemes::EntropyOracle oracle(rows, oracle_options);
  const size_t m = parent.schema.NumAttributes();
  std::vector<fd::AttributeSet> singles;
  singles.reserve(m);
  for (size_t a = 0; a < m; ++a) {
    singles.push_back(
        fd::AttributeSet::Single(static_cast<relation::AttributeId>(a)));
  }
  LIMBO_ASSIGN_OR_RETURN(const std::vector<double> absorbed_h,
                         oracle.HBatch(singles));
  std::vector<std::vector<uint64_t>> counts(m);
  for (relation::ValueId v = 0; v < parent.dictionary.NumValues(); ++v) {
    counts[parent.dictionary.Attribute(v)].push_back(
        parent.dictionary.Support(v));
  }
  double drift = 0.0;
  for (size_t a = 0; a < m; ++a) {
    const double parent_h =
        schemes::EntropyFromCounts(std::move(counts[a]), parent.num_rows);
    drift = std::max(drift, std::fabs(absorbed_h[a] - parent_h));
  }
  return drift;
}

/// Moderate-path structure refresh: re-derives the CV_D value groups and
/// the ranked FD cover from the absorbed rows instead of carrying them
/// verbatim from the parent. The parent's raw rows are gone, so the
/// refresh is anchored two ways: value groups are re-clustered on the
/// absorbed relation (ids remapped into the chain dictionary), and an FD
/// survives only if it follows from the parent's cover AND still holds
/// exactly on the absorbed rows — dependencies the new data broke drop
/// out, accidental dependencies of the small absorbed sample never enter.
util::Status RefreshDerivedStructure(const ModelBundle& parent,
                                     const relation::Relation& absorbed,
                                     ModelBundle* child, size_t threads) {
  LIMBO_OBS_SPAN(span, "model.refit.structure");

  // --- CV_D value groups over the absorbed rows ---
  core::ValueClusteringOptions value_options;
  value_options.phi_v = parent.phi_v;
  LIMBO_ASSIGN_OR_RETURN(core::ValueClusteringResult values,
                         core::ClusterValues(absorbed, value_options));

  // Attribute grouping runs before the id remap: it reads the groups in
  // the absorbed relation's own id space. Attribute ids are schema-global
  // so the result needs no translation.
  core::AttributeGroupingResult grouping;
  bool rederived_grouping = false;
  if (!values.duplicate_groups.empty()) {
    core::AttributeGroupingOptions grouping_options;
    grouping_options.threads = threads;
    auto grouped = core::GroupAttributes(absorbed, values, grouping_options);
    if (grouped.ok()) {
      grouping = std::move(grouped).value();
      rederived_grouping = true;
    }
  }

  // Remap group members into the chain dictionary (every absorbed value
  // was interned there by the streaming pass). The group DCF conditionals
  // stay in the absorbed relation's tuple space, as at fit time.
  for (core::ValueGroup& g : values.groups) {
    for (relation::ValueId& v : g.values) {
      LIMBO_ASSIGN_OR_RETURN(
          v, child->dictionary.Find(absorbed.dictionary().Attribute(v),
                                    absorbed.dictionary().Text(v)));
    }
  }
  StoreStructure(std::move(values), rederived_grouping ? &grouping : nullptr,
                 child);
  if (rederived_grouping) {
    LIMBO_OBS_COUNT("refit.grouping_rederived", 1);
  } else if (child->has_grouping) {
    // CV_D of the absorbed rows was empty: keep the parent's dendrogram
    // (already copied into the child) as the ranking anchor.
    grouping = StoredGrouping(*child);
  }

  // --- FD cover re-validated against the absorbed rows ---
  std::vector<fd::FunctionalDependency> parent_fds;
  for (const core::RankedFd& r : parent.ranked_fds) {
    for (relation::AttributeId a : r.fd.rhs.ToList()) {
      parent_fds.push_back({r.fd.lhs, fd::AttributeSet::Single(a)});
    }
  }
  LIMBO_ASSIGN_OR_RETURN(const std::vector<fd::FunctionalDependency> mined,
                         fd::Tane::Mine(absorbed));
  std::vector<fd::FunctionalDependency> kept;
  auto push_unique = [&kept](const fd::FunctionalDependency& f) {
    for (const fd::FunctionalDependency& k : kept) {
      if (k == f) return;
    }
    kept.push_back(f);
  };
  for (const fd::FunctionalDependency& f : parent_fds) {
    if (fd::Holds(absorbed, f)) push_unique(f);
  }
  for (const fd::FunctionalDependency& f : mined) {
    if (fd::Implies(parent_fds, f)) push_unique(f);
  }
  child->num_fds = kept.size();
  core::FdRankOptions rank_options;
  rank_options.psi = parent.psi;
  LIMBO_ASSIGN_OR_RETURN(
      child->ranked_fds,
      core::RankCover(kept, child->has_grouping ? &grouping : nullptr,
                      rank_options));
  LIMBO_OBS_COUNT("refit.structure_refreshes", 1);
  return util::Status::Ok();
}

}  // namespace

util::Result<RefitResult> RefitModel(const ModelBundle& parent,
                                     relation::RowSource& rows,
                                     const RefitOptions& options) {
  if (!parent.has_phase1_tree) {
    return util::Status::InvalidArgument(
        "bundle carries no phase-1 tree: refit needs a model fitted with "
        "refit state (limbo-tool fit without --no-refit-state)");
  }
  if (options.drift_moderate < 0.0 || options.drift_severe < 0.0 ||
      options.drift_moderate > options.drift_severe) {
    return util::Status::InvalidArgument(
        "drift thresholds must satisfy 0 <= moderate <= severe");
  }
  const size_t m = parent.schema.NumAttributes();
  if (rows.schema().Names() != parent.schema.Names()) {
    return util::Status::InvalidArgument(
        "new rows' schema does not match the model's");
  }
  LIMBO_OBS_SPAN(refit_span, "model.refit");

  // Masses stay in units of 1/base_rows across the whole refit chain so
  // new-row summaries compose with the frozen tree's, and new-row losses
  // are comparable to the parent's fit-time losses.
  const uint64_t base_rows =
      parent.has_lineage ? parent.lineage.base_rows : parent.num_rows;
  const double row_mass = 1.0 / static_cast<double>(base_rows);

  core::Phase1Builder builder(parent.phase1_tree);
  core::Phase3Assigner drift_assigner(parent.representatives,
                                      options.threads);
  relation::ValueDictionary dictionary = parent.dictionary;

  // One streaming pass over the new rows: every buffered chunk is (a)
  // assigned against the frozen representatives — the drift signal, and
  // on the no-drift path the new labels themselves — and (b) inserted
  // into the rehydrated tree, recording each row's leaf entry.
  const size_t chunk_rows =
      options.chunk_rows == 0 ? RefitOptions().chunk_rows : options.chunk_rows;
  std::vector<core::Dcf> chunk;
  chunk.reserve(chunk_rows);
  std::vector<uint32_t> new_labels;
  std::vector<double> new_losses;
  std::vector<uint32_t> new_entry_ids;
  std::vector<std::string> fields;
  std::vector<uint32_t> ids(m);
  uint64_t absorbed = 0;
  auto flush = [&]() {
    if (chunk.empty()) return;
    const size_t at = new_labels.size();
    new_labels.resize(at + chunk.size());
    new_losses.resize(at + chunk.size());
    drift_assigner.AssignChunk(chunk, new_labels.data() + at,
                               new_losses.data() + at);
    for (const core::Dcf& object : chunk) {
      new_entry_ids.push_back(builder.Insert(object));
    }
    chunk.clear();
  };
  while (true) {
    LIMBO_ASSIGN_OR_RETURN(const bool more, rows.Next(&fields));
    if (!more) break;
    if (fields.size() != m) {
      return util::Status::InvalidArgument(util::StrFormat(
          "new row %llu has %zu fields, schema has %zu",
          static_cast<unsigned long long>(absorbed + 1), fields.size(), m));
    }
    for (size_t a = 0; a < m; ++a) {
      ids[a] = dictionary.InternOccurrence(
          static_cast<relation::AttributeId>(a), fields[a]);
    }
    core::Dcf object;
    object.p = row_mass;
    object.cond = core::SparseDistribution::UniformOver(ids);
    chunk.push_back(std::move(object));
    ++absorbed;
    if (chunk.size() >= chunk_rows) flush();
  }
  flush();
  drift_assigner.Flush();
  LIMBO_OBS_COUNT("refit.rows_absorbed", absorbed);

  RefitResult result;
  result.rows_absorbed = absorbed;
  double fit_total = 0.0;
  for (const double loss : parent.assignment_loss) fit_total += loss;
  result.fit_mean_loss =
      parent.assignment_loss.empty()
          ? 0.0
          : fit_total / static_cast<double>(parent.assignment_loss.size());
  double new_total = 0.0;
  for (const double loss : new_losses) new_total += loss;
  result.new_rows_mean_loss =
      absorbed == 0 ? 0.0 : new_total / static_cast<double>(absorbed);
  if (absorbed == 0 || result.new_rows_mean_loss == 0.0) {
    result.drift_score = 0.0;
  } else if (result.fit_mean_loss == 0.0) {
    result.drift_score = kMaxDriftScore;
  } else {
    result.drift_score =
        std::min(result.new_rows_mean_loss / result.fit_mean_loss,
                 kMaxDriftScore);
  }
  result.drift_class = Classify(result.drift_score, options);
  if (result.drift_class == DriftClass::kSevere) {
    LIMBO_OBS_COUNT("refit.severe", 1);
    return result;
  }

  // Second signal: entropy drift of the absorbed rows' marginals against
  // the frozen counts. Informational — it does not change the class.
  if (absorbed > 0) {
    LIMBO_ASSIGN_OR_RETURN(result.entropy_drift,
                           EntropyDrift(parent, rows, options.threads));
  }

  ModelBundle child = parent;
  child.dictionary = std::move(dictionary);
  child.num_rows = parent.num_rows + absorbed;
  child.row_entry_ids.insert(child.row_entry_ids.end(), new_entry_ids.begin(),
                             new_entry_ids.end());
  child.phase1_tree = builder.Freeze();

  if (result.drift_class == DriftClass::kNone) {
    // Patch path: representatives and original assignments stay frozen;
    // the new rows' labels/losses from the drift scan are appended.
    child.assignments.insert(child.assignments.end(), new_labels.begin(),
                             new_labels.end());
    child.assignment_loss.insert(child.assignment_loss.end(),
                                 new_losses.begin(), new_losses.end());
    LIMBO_OBS_COUNT("refit.patched", 1);
  } else {
    // Moderate drift: re-run Phase 2/3 from the updated tree. The raw
    // rows behind the old leaf entries are gone, so rows inherit the
    // label of their leaf entry; each row's loss is its mass share of
    // the leaf's assignment loss.
    LIMBO_OBS_SPAN(rerun_span, "model.refit.phase23");
    const std::vector<core::Dcf> leaves = builder.Leaves();
    const std::vector<uint32_t> leaf_ids = builder.LeafEntryIds();
    const size_t k =
        std::min(parent.representatives.size(), leaves.size());
    core::AibOptions aib_options;
    aib_options.threads = options.threads;
    aib_options.min_k = k;
    LIMBO_ASSIGN_OR_RETURN(core::AibResult aib,
                           core::AgglomerativeIb(leaves, aib_options));
    LIMBO_ASSIGN_OR_RETURN(child.representatives,
                           core::ClusterDcfsAtK(leaves, aib, k));
    std::vector<double> leaf_loss;
    LIMBO_ASSIGN_OR_RETURN(
        const std::vector<uint32_t> leaf_labels,
        core::LimboPhase3(leaves, child.representatives, &leaf_loss,
                          options.threads));
    std::vector<uint32_t> entry_to_leaf(builder.stats().num_leaf_entries, 0);
    for (size_t i = 0; i < leaf_ids.size(); ++i) {
      entry_to_leaf[leaf_ids[i]] = static_cast<uint32_t>(i);
    }
    child.assignments.resize(child.num_rows);
    child.assignment_loss.resize(child.num_rows);
    for (uint64_t r = 0; r < child.num_rows; ++r) {
      const uint32_t leaf = entry_to_leaf[child.row_entry_ids[r]];
      child.assignments[r] = leaf_labels[leaf];
      child.assignment_loss[r] =
          leaf_loss[leaf] * (row_mass / leaves[leaf].p);
    }
    // The derived structure (CV_D, dendrogram, ranked FDs) is refreshed
    // from the absorbed rows rather than carried from the parent.
    LIMBO_RETURN_IF_ERROR(rows.Reset());
    relation::RelationBuilder absorbed_builder(parent.schema);
    while (true) {
      LIMBO_ASSIGN_OR_RETURN(const bool more, rows.Next(&fields));
      if (!more) break;
      LIMBO_RETURN_IF_ERROR(absorbed_builder.AddRow(fields));
    }
    const relation::Relation absorbed_rel =
        std::move(absorbed_builder).Build();
    LIMBO_RETURN_IF_ERROR(RefreshDerivedStructure(parent, absorbed_rel,
                                                  &child, options.threads));
    LIMBO_OBS_COUNT("refit.phase23_reruns", 1);
  }

  child.has_lineage = true;
  child.lineage.parent_checksum = parent.payload_checksum;
  child.lineage.refit_generation =
      parent.has_lineage ? parent.lineage.refit_generation + 1 : 1;
  child.lineage.drift_class = result.drift_class;
  child.lineage.base_rows = base_rows;
  child.lineage.rows_absorbed = absorbed;
  child.lineage.total_rows_absorbed = child.num_rows - base_rows;
  child.lineage.drift_score = result.drift_score;
  child.lineage.drift_moderate = options.drift_moderate;
  child.lineage.drift_severe = options.drift_severe;
  child.lineage.entropy_drift = result.entropy_drift;
  result.bundle = std::move(child);
  return result;
}

}  // namespace limbo::model
