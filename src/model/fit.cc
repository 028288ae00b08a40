#include "model/fit.h"

#include <utility>

#include "core/limbo.h"
#include "core/structure_summary.h"
#include "core/tuple_clustering.h"
#include "obs/trace.h"
#include "relation/row_source.h"
#include "schemes/entropy_oracle.h"
#include "schemes/mine.h"

namespace limbo::model {

util::Result<ModelBundle> FitModel(const relation::Relation& rel,
                                   const FitOptions& options) {
  if (rel.NumTuples() == 0) {
    return util::Status::InvalidArgument("cannot fit a model on 0 rows");
  }
  if (options.k == 0) {
    return util::Status::InvalidArgument("fit requires k >= 1");
  }
  LIMBO_OBS_SPAN(fit_span, "model.fit");

  ModelBundle bundle;
  bundle.num_rows = rel.NumTuples();
  bundle.phi_t = options.phi_t;
  bundle.phi_v = options.phi_v;
  bundle.psi = options.psi;
  bundle.association_margin = options.association_margin;
  bundle.schema = rel.schema();
  bundle.dictionary = rel.dictionary();

  // Tuple clustering: the frozen assignment map.
  const std::vector<core::Dcf> objects = core::BuildTupleObjects(rel);
  core::LimboOptions limbo_options;
  limbo_options.phi = options.phi_t;
  limbo_options.k = options.k;
  limbo_options.threads = options.threads;
  limbo_options.freeze_tree = options.refit_state;
  LIMBO_ASSIGN_OR_RETURN(core::LimboResult run,
                         core::RunLimbo(objects, limbo_options));
  bundle.mutual_information = run.mutual_information;
  bundle.threshold = run.threshold;
  bundle.representatives = std::move(run.representatives);
  bundle.assignments = std::move(run.assignments);
  bundle.assignment_loss = std::move(run.assignment_loss);
  if (run.has_frozen_tree) {
    bundle.has_phase1_tree = true;
    bundle.phase1_tree = std::move(run.frozen_tree);
    bundle.row_entry_ids = std::move(run.row_entry_ids);
  }

  // Derived structure: value groups / CV_D, dendrogram, ranked FDs.
  core::StructureSummaryOptions summary_options;
  summary_options.phi_t = options.phi_t;
  summary_options.phi_v = options.phi_v;
  summary_options.psi = options.psi;
  LIMBO_ASSIGN_OR_RETURN(core::StructureSummary summary,
                         core::SummarizeStructure(rel, summary_options));
  StoreStructure(std::move(summary.values),
                 summary.has_grouping ? &summary.grouping : nullptr, &bundle);
  bundle.num_fds = summary.num_fds;
  bundle.ranked_fds = std::move(summary.ranked_cover);

  if (options.mine_schemes && rel.schema().NumAttributes() >= 2) {
    LIMBO_OBS_SPAN(schemes_span, "model.fit.schemes");
    relation::RelationRowSource source(rel);
    schemes::EntropyOracleOptions oracle_options;
    oracle_options.threads = options.threads;
    schemes::EntropyOracle oracle(source, oracle_options);
    schemes::MineOptions mine_options;
    mine_options.epsilon = options.schemes_epsilon;
    mine_options.max_separator = options.schemes_max_separator;
    LIMBO_ASSIGN_OR_RETURN(schemes::MineResult mined,
                           schemes::MineAcyclicSchemes(oracle, mine_options));
    bundle.has_schemes = true;
    bundle.schemes_epsilon = options.schemes_epsilon;
    bundle.schemes_max_separator = options.schemes_max_separator;
    bundle.schemes_total_entropy = mined.total_entropy;
    bundle.schemes.reserve(mined.schemes.size());
    for (const schemes::AcyclicScheme& s : mined.schemes) {
      BundleScheme out;
      out.separator_bits = s.separator.bits();
      out.j_measure = s.j_measure;
      out.bag_bits.reserve(s.bags.size());
      for (fd::AttributeSet bag : s.bags) out.bag_bits.push_back(bag.bits());
      bundle.schemes.push_back(std::move(out));
    }
  }
  return bundle;
}

}  // namespace limbo::model
