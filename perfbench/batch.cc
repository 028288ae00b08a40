// The two batch workloads: `fit` (a CSV on disk becomes a loaded,
// verified model bundle) and `schemes` (a CSV on disk is mined for
// approximate acyclic schemes).

#include <algorithm>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "core/aib.h"
#include "core/attribute_grouping.h"
#include "core/fd_rank.h"
#include "core/info.h"
#include "core/limbo.h"
#include "core/structure_summary.h"
#include "core/tuple_clustering.h"
#include "core/value_clustering.h"
#include "datagen/dblp.h"
#include "fd/fdep.h"
#include "fd/min_cover.h"
#include "fd/tane.h"
#include "model/fit.h"
#include "model/model_bundle.h"
#include "obs/counters.h"
#include "relation/csv_io.h"
#include "relation/row_source.h"
#include "relation/stats.h"
#include "schemes/entropy_oracle.h"
#include "schemes/mine.h"
#include "serve/engine.h"
#include "workloads.h"

namespace limbo::perfbench {
namespace {

std::string InputCsv(const Args& args) {
  return args.Require("dir") + "/input.csv";
}

double GenerateCsv(const Args& args) {
  const auto start = Clock::now();
  datagen::DblpOptions options;
  options.seed = args.RequireInt("seed");
  options.target_tuples = args.RequireInt("tuples");
  const relation::Relation rel = datagen::GenerateDblp(options);
  MustOk(relation::WriteCsv(rel, InputCsv(args)), "write input CSV");
  return SecondsSince(start);
}

/// End-to-end metrics of one batch job: its time and the peak resident set
/// of the measure process, which runs nothing else. A batch workload runs
/// one operation at one load level, so both latency slots hold the job
/// time too.
void SetBatchMetrics(double job_s, Outcome* out) {
  out->Set("job_s", job_s);
  out->Set("peak_rss_mb", PeakRssMib());
  out->Set("p50_us.light", 1e6 * job_s);
  out->Set("p50_us.heavy", 1e6 * job_s);
}

template <typename F>
auto Timed(double* seconds, F&& body) {
  const auto start = Clock::now();
  auto result = body();
  *seconds += SecondsSince(start);
  return result;
}

// ---------------------------------------------------------------- fit --

model::FitOptions FitDefaults() {
  model::FitOptions options;  // limbo-tool fit defaults
  options.threads = kThreads;
  return options;
}

struct FitJob {
  double seconds = 0.0;
  relation::Relation rel;
  model::ModelBundle fitted;
  model::ModelBundle loaded;
};

/// ReadCsv -> FitModel -> Save -> Load: what `limbo-tool fit` plus a
/// daemon start cost a user, CSV bytes to a bundle ready to serve.
FitJob RunFitJob(const Args& args) {
  const std::string bundle_path = args.Require("dir") + "/fit.limbo";
  FitJob job;
  const auto start = Clock::now();
  job.rel = Must(relation::ReadCsv(InputCsv(args)), "read CSV");
  job.fitted = Must(model::FitModel(job.rel, FitDefaults()), "fit");
  MustOk(model::Save(job.fitted, bundle_path), "save bundle");
  job.loaded = Must(model::Load(bundle_path), "load bundle");
  job.seconds = SecondsSince(start);
  return job;
}

/// Load(Save(b)) must reproduce b's bytes and checksum, and every fitted
/// row served through the loaded bundle's engine must get exactly the
/// label and loss the fit stored.
void VerifyFit(const FitJob& job, Outcome* out) {
  const std::string bytes = model::SerializeBundle(job.fitted);
  uint64_t header_checksum = 0;
  if (bytes.size() >= 32) std::memcpy(&header_checksum, bytes.data() + 24, 8);
  out->Check(job.loaded.payload_checksum == header_checksum &&
                 model::SerializeBundle(job.loaded) == bytes,
             "fit: Load(Save(bundle)) does not reproduce the bundle");

  const serve::Engine engine =
      Must(serve::Engine::FromBundle(job.loaded), "engine from bundle");
  core::LossKernel kernel;
  std::vector<std::string> fields(job.rel.NumAttributes());
  uint64_t mismatched = 0;
  for (relation::TupleId t = 0; t < job.rel.NumTuples(); ++t) {
    for (relation::AttributeId a = 0; a < job.rel.NumAttributes(); ++a) {
      fields[a] = job.rel.TextAt(t, a);
    }
    uint32_t label = 0;
    double loss = 0.0;
    size_t oov = 0;
    const util::Status s = engine.AssignRow(fields, &kernel, &label, &loss,
                                            &oov);
    const double want = job.fitted.assignment_loss[t];
    if (!s.ok() || oov != 0 || label != job.fitted.assignments[t] ||
        std::memcmp(&loss, &want, sizeof(loss)) != 0) {
      ++mismatched;
    }
  }
  out->Tally(job.rel.NumTuples(), mismatched,
             "fit: served label/loss differs from the fitted one");
}

/// Work counters of one fit, read from the obs layer.
struct FitWork {
  uint64_t dcf_inserts = 0;
  uint64_t aib_distance_evals = 0;

  static FitWork Now() {
    return {CounterNow("dcf_tree.inserts"), CounterNow("aib.distance_evals")};
  }
  bool operator==(const FitWork&) const = default;
};

/// FitModel rebuilt from the public calls it is made of, each timed here:
/// RunLimbo's phases (Phase1Builder, AgglomerativeIb, ClusterDcfsAtK +
/// Phase3Assigner) and SummarizeStructure's steps. Two checks tie the
/// times below to the computation the end-to-end run measured: the
/// assembled bundle must serialize to exactly the untraced FitModel's
/// bytes, and the rebuild must do exactly the Phase-1 inserts and AIB
/// distance evaluations a traced FitModel does (`fit_model`), so a step
/// FitModel drops or adds (a result the bundle never sees, such as the
/// duplicate-tuple pass) fails the run instead of being timed here.
void TracedFit(const Args& args, const FitJob& untraced,
               const FitWork& fit_model, Outcome* out) {
  const model::FitOptions options = FitDefaults();
  const std::string bundle_path = args.Require("dir") + "/fit_traced.limbo";
  double read_s = 0, p1_s = 0, p2_s = 0, p3_s = 0, profile_s = 0, dup_s = 0,
         dc_s = 0, vc_s = 0, ag_s = 0, mine_s = 0, cover_s = 0, rank_s = 0,
         save_s = 0, load_s = 0;
  const auto start = Clock::now();

  const relation::Relation rel = Must(
      Timed(&read_s, [&] { return relation::ReadCsv(InputCsv(args)); }),
      "read CSV");
  const size_t n = rel.NumTuples();
  model::ModelBundle bundle;
  bundle.num_rows = n;
  bundle.phi_t = options.phi_t;
  bundle.phi_v = options.phi_v;
  bundle.psi = options.psi;
  bundle.association_margin = options.association_margin;
  bundle.schema = rel.schema();
  bundle.dictionary = rel.dictionary();

  // RunLimbo: threshold passes + Phase 1, Phase 2, Phase 3.
  core::LimboOptions limbo_options;
  limbo_options.phi = options.phi_t;
  limbo_options.k = options.k;
  limbo_options.threads = options.threads;
  limbo_options.freeze_tree = options.refit_state;
  std::vector<core::Dcf> objects;
  std::vector<core::Dcf> leaves;
  Timed(&p1_s, [&] {
    objects = core::BuildTupleObjects(rel);
    core::MutualInformationAccumulator info;
    for (const core::Dcf& o : objects) info.AddMarginal(o.p, o.cond);
    for (const core::Dcf& o : objects) info.AddInformation(o.p, o.cond);
    bundle.mutual_information = info.Value();
    bundle.threshold = options.phi_t * bundle.mutual_information /
                       static_cast<double>(n);
    core::Phase1Builder builder(limbo_options, bundle.threshold);
    bundle.row_entry_ids.reserve(n);
    for (const core::Dcf& o : objects) {
      bundle.row_entry_ids.push_back(builder.Insert(o));
    }
    leaves = builder.Leaves();
    bundle.has_phase1_tree = true;
    bundle.phase1_tree = builder.Freeze();
    return 0;
  });
  core::AibOptions aib_options;
  aib_options.threads = options.threads;
  aib_options.min_k = std::min(options.k, leaves.size());
  const uint64_t nn_hits0 = CounterNow("aib.nn_cache.hits");
  const uint64_t nn_miss0 = CounterNow("aib.nn_cache.misses");
  const core::AibResult aib = Must(
      Timed(&p2_s, [&] { return core::AgglomerativeIb(leaves, aib_options); }),
      "phase 2");
  const double nn_hits =
      static_cast<double>(CounterNow("aib.nn_cache.hits") - nn_hits0);
  const double nn_misses =
      static_cast<double>(CounterNow("aib.nn_cache.misses") - nn_miss0);
  util::Status phase3 = Timed(&p3_s, [&]() -> util::Status {
    LIMBO_ASSIGN_OR_RETURN(
        bundle.representatives,
        core::ClusterDcfsAtK(leaves, aib, aib_options.min_k));
    core::Phase3Assigner assigner(bundle.representatives, options.threads);
    bundle.assignments.resize(n);
    bundle.assignment_loss.assign(n, 0.0);
    assigner.AssignChunk(objects, bundle.assignments.data(),
                         bundle.assignment_loss.data());
    assigner.Flush();
    return util::Status::Ok();
  });
  MustOk(phase3, "phase 3");

  // SummarizeStructure, step by step.
  Timed(&profile_s, [&] { return relation::Profile(rel); });
  core::DuplicateTupleOptions dup_options;
  dup_options.phi_t = options.phi_t;
  Must(Timed(&dup_s,
             [&] { return core::FindDuplicateTuples(rel, dup_options); }),
       "duplicate tuples");
  const core::StructureSummaryOptions summary_defaults;
  const bool large = n > summary_defaults.large_relation_threshold;
  core::ValueClusteringOptions value_options;
  value_options.phi_v = options.phi_v;
  std::vector<uint32_t> labels;
  if (large) {
    util::Status dc = Timed(&dc_s, [&]() -> util::Status {
      const std::vector<core::Dcf> dc_objects = core::BuildTupleObjects(rel);
      core::WeightedRows rows;
      for (const core::Dcf& o : dc_objects) {
        rows.weights.push_back(o.p);
        rows.rows.push_back(o.cond);
      }
      const double info = core::MutualInformation(rows);
      const double phi = summary_defaults.phi_t_double_clustering;
      core::LimboOptions dc_options;
      dc_options.phi = phi;
      const std::vector<core::Dcf> dc_leaves = core::LimboPhase1(
          dc_objects, dc_options,
          phi * info / static_cast<double>(dc_objects.size()));
      LIMBO_ASSIGN_OR_RETURN(labels, core::LimboPhase3(dc_objects, dc_leaves));
      value_options.tuple_labels = &labels;
      value_options.num_tuple_clusters = dc_leaves.size();
      return util::Status::Ok();
    });
    MustOk(dc, "double clustering");
  }
  core::ValueClusteringResult values = Must(
      Timed(&vc_s, [&] { return core::ClusterValues(rel, value_options); }),
      "value clustering");
  core::AttributeGroupingResult grouping;
  bool has_grouping = false;
  if (!values.duplicate_groups.empty()) {
    auto grouped =
        Timed(&ag_s, [&] { return core::GroupAttributes(rel, values); });
    if (grouped.ok()) {
      grouping = std::move(grouped).value();
      has_grouping = true;
    }
  }
  const std::vector<fd::FunctionalDependency> fds = Must(
      Timed(&mine_s,
            [&]() -> util::Result<std::vector<fd::FunctionalDependency>> {
              if (!large) return fd::Fdep::Mine(rel);
              fd::TaneOptions tane_options;
              tane_options.min_lhs = 1;
              return fd::Tane::Mine(rel, tane_options);
            }),
      "FD mining");
  const std::vector<fd::FunctionalDependency> cover = Timed(
      &cover_s, [&] { return fd::MinimumCover(fds, /*merge_same_lhs=*/false); });
  if (has_grouping) {
    core::FdRankOptions rank_options;
    rank_options.psi = options.psi;
    bundle.ranked_fds = Must(
        Timed(&rank_s, [&] { return core::RankFds(cover, grouping, rank_options); }),
        "FD rank");
  } else {
    for (const auto& f : cover) bundle.ranked_fds.push_back({f, 0.0, false});
  }

  // Assemble exactly as FitModel does.
  bundle.value_mutual_information = values.mutual_information;
  bundle.value_threshold = values.threshold;
  bundle.value_groups = std::move(values.groups);
  for (size_t g : values.duplicate_groups) {
    bundle.duplicate_groups.push_back(static_cast<uint32_t>(g));
  }
  bundle.has_grouping = has_grouping;
  if (has_grouping) {
    bundle.grouping_attributes = grouping.attributes;
    bundle.grouping_num_objects = grouping.aib.num_objects();
    bundle.grouping_merges = grouping.aib.merges();
    for (const fd::AttributeSet& s : grouping.cluster_members) {
      bundle.grouping_cluster_members.push_back(s.bits());
    }
    bundle.max_merge_loss = grouping.max_merge_loss;
  }
  bundle.num_fds = fds.size();

  MustOk(Timed(&save_s, [&] { return model::Save(bundle, bundle_path); }),
         "save traced bundle");
  const model::ModelBundle loaded =
      Must(Timed(&load_s, [&] { return model::Load(bundle_path); }),
           "load traced bundle");
  const double traced_s = SecondsSince(start);

  out->Check(FitWork::Now() == fit_model,
             "fit: the traced decomposition does other Phase-1 or AIB work "
             "than FitModel");
  out->Check(model::SerializeBundle(bundle) ==
                     model::SerializeBundle(untraced.fitted) &&
                 loaded.payload_checksum == untraced.loaded.payload_checksum,
             "fit: traced decomposition differs from FitModel");

  const double self_s = read_s + p1_s + p2_s + p3_s + profile_s + dup_s +
                        dc_s + vc_s + ag_s + mine_s + cover_s + rank_s +
                        save_s + load_s;
  out->Set("relation.read_csv_s", read_s);
  out->Set("core.phase1_s", p1_s);
  out->Set("core.phase1.leaves", static_cast<double>(leaves.size()));
  out->Set("core.phase2_s", p2_s);
  out->Set("core.phase2.distance_evals",
           static_cast<double>(aib.stats().distance_evals));
  out->Set("core.phase2.nn_cache_hit_ratio",
           nn_hits + nn_misses > 0 ? nn_hits / (nn_hits + nn_misses) : 0.0);
  out->Set("core.phase3_s", p3_s);
  out->Set("core.phase3.distance_evals",
           static_cast<double>(n * bundle.representatives.size()));
  out->Set("core.profile_s", profile_s);
  out->Set("core.duplicates_s", dup_s);
  out->Set("core.double_clustering_s", dc_s);
  out->Set("core.value_clustering_s", vc_s);
  out->Set("core.attribute_grouping_s", ag_s);
  out->Set("core.fd_rank_s", rank_s);
  out->Set("core.dcf_inserts_per_row",
           static_cast<double>(fit_model.dcf_inserts) /
               static_cast<double>(n));
  out->Set("fd.mine_s", mine_s);
  out->Set("fd.fds_mined", static_cast<double>(fds.size()));
  out->Set("fd.min_cover_s", cover_s);
  out->Set("model.save_s", save_s);
  out->Set("model.load_s", load_s);
  out->Set("model.bundle_bytes", static_cast<double>(FileBytes(bundle_path)));
  out->Set("trace_overhead_frac",
           (traced_s - untraced.seconds) / untraced.seconds);
  out->Set("unattributed_s", untraced.seconds - self_s);
}

// ------------------------------------------------------------ schemes --

struct MineJob {
  double seconds = 0.0;
  double read_s = 0.0;
  relation::Relation rel;
  schemes::MineResult result;
  schemes::EntropyOracle::Stats oracle;
};

schemes::MineOptions MineDefaults() {
  schemes::MineOptions options;  // limbo-tool schemes defaults
  options.epsilon = 0.05;
  options.max_separator = 2;
  return options;
}

/// ReadCsv -> EntropyOracle over a RelationRowSource -> MineAcyclicSchemes:
/// `limbo-tool schemes` on the CSV.
MineJob RunMineJob(const Args& args) {
  MineJob job;
  const auto start = Clock::now();
  job.rel = Must(relation::ReadCsv(InputCsv(args)), "read CSV");
  job.read_s = SecondsSince(start);
  relation::RelationRowSource source(job.rel);
  schemes::EntropyOracleOptions oracle_options;
  oracle_options.threads = kThreads;
  schemes::EntropyOracle oracle(source, oracle_options);
  job.result =
      Must(schemes::MineAcyclicSchemes(oracle, MineDefaults()), "mine schemes");
  job.oracle = oracle.stats();
  job.seconds = SecondsSince(start);
  return job;
}

/// Every admitted scheme's J, recomputed from a fresh oracle with the
/// miner's own formula, is within epsilon and equals the stored J; the
/// list is in the documented order (J, separator, bag count, bags).
void VerifySchemes(const MineJob& job, Outcome* out) {
  relation::RelationRowSource source(job.rel);
  schemes::EntropyOracleOptions oracle_options;
  oracle_options.threads = kThreads;
  schemes::EntropyOracle oracle(source, oracle_options);
  const fd::AttributeSet omega =
      fd::AttributeSet::Full(job.rel.NumAttributes());
  const double epsilon = MineDefaults().epsilon;
  const double h_omega = Must(oracle.H(omega), "H(omega)");
  out->Check(h_omega == job.result.total_entropy,
             "schemes: H(omega) differs from a fresh oracle");
  out->Check(!job.result.schemes.empty(), "schemes: nothing admitted");
  for (size_t i = 0; i < job.result.schemes.size(); ++i) {
    const schemes::AcyclicScheme& s = job.result.schemes[i];
    std::vector<fd::AttributeSet> sets{s.separator};
    sets.insert(sets.end(), s.bags.begin(), s.bags.end());
    const std::vector<double> h = Must(oracle.HBatch(sets), "H(bags)");
    double sum_bags = 0.0;
    for (size_t b = 0; b < s.bags.size(); ++b) sum_bags += h[b + 1];
    const double k = static_cast<double>(s.bags.size());
    double j = sum_bags - (k - 1.0) * h[0] - h_omega;
    if (j < 0.0) j = 0.0;
    out->Check(j <= epsilon && j == s.j_measure,
               "schemes: recomputed J " + std::to_string(j) +
                   " vs admitted " + std::to_string(s.j_measure));
    if (i == 0) continue;
    const schemes::AcyclicScheme& a = job.result.schemes[i - 1];
    bool ordered;
    if (a.j_measure != s.j_measure) {
      ordered = a.j_measure < s.j_measure;
    } else if (!(a.separator == s.separator)) {
      ordered = a.separator < s.separator;
    } else if (a.bags.size() != s.bags.size()) {
      ordered = a.bags.size() < s.bags.size();
    } else {
      ordered = a.bags < s.bags;
    }
    out->Check(ordered, "schemes: list is out of the documented order");
  }
}

/// The search alone: MineAcyclicSchemes over an oracle whose memo already
/// holds every subset the search asks for (an untimed first run fills it),
/// so the timed run counts nothing. Checks that it indeed made no counting
/// pass and admitted the same schemes as `job`.
double TimeSearch(const MineJob& job, Outcome* out) {
  relation::RelationRowSource source(job.rel);
  schemes::EntropyOracleOptions oracle_options;
  oracle_options.threads = kThreads;
  oracle_options.memo_entries = std::numeric_limits<size_t>::max();
  schemes::EntropyOracle oracle(source, oracle_options);
  Must(schemes::MineAcyclicSchemes(oracle, MineDefaults()), "fill memo");
  const uint64_t passes = oracle.stats().passes;
  const auto start = Clock::now();
  const schemes::MineResult result =
      Must(schemes::MineAcyclicSchemes(oracle, MineDefaults()), "search");
  const double seconds = SecondsSince(start);
  out->Check(oracle.stats().passes == passes,
             "schemes: the search timing included counting passes");
  bool same = result.schemes.size() == job.result.schemes.size();
  for (size_t i = 0; same && i < result.schemes.size(); ++i) {
    same = result.schemes[i].j_measure == job.result.schemes[i].j_measure &&
           result.schemes[i].separator == job.result.schemes[i].separator &&
           result.schemes[i].bags == job.result.schemes[i].bags;
  }
  out->Check(same, "schemes: the search timing admitted other schemes");
  return seconds;
}

}  // namespace

double SetupFit(const Args& args) { return GenerateCsv(args); }

double SetupSchemes(const Args& args) { return GenerateCsv(args); }

Outcome MeasureFit(const Args& args, bool trace) {
  Outcome out;
  obs::SetEnabled(false);
  if (trace) {
    // The first job of a process also pays for growing the heap; the
    // untraced reference is a second, warm one, like the traced runs. (The
    // end-to-end job_s times first jobs only, one fresh process each.)
    RunFitJob(args);
    const FitJob untraced = RunFitJob(args);
    VerifyFit(untraced, &out);
    obs::SetEnabled(true);
    // FitModel itself, traced: its span tree and counters are the obs
    // record, and its work counters are what the rebuild must match.
    obs::ResetCounters();
    obs::ResetTrace();
    Must(model::FitModel(untraced.rel, FitDefaults()), "traced fit");
    const FitWork fit_model = FitWork::Now();
    WriteObsSnapshot(args.Require("dir") + "/obs.json", "perfbench fit");
    obs::ResetCounters();
    obs::ResetTrace();
    TracedFit(args, untraced, fit_model, &out);
    return out;
  }
  const FitJob job = RunFitJob(args);
  VerifyFit(job, &out);
  SetBatchMetrics(job.seconds, &out);
  return out;
}

Outcome MeasureSchemes(const Args& args, bool trace) {
  Outcome out;
  obs::SetEnabled(false);
  if (trace) {
    RunMineJob(args);  // warm-up, as on fit
    const MineJob untraced = RunMineJob(args);
    VerifySchemes(untraced, &out);
    obs::SetEnabled(true);
    obs::ResetCounters();
    obs::ResetTrace();
    const MineJob traced = RunMineJob(args);
    const double oracle_s =
        SpanSecondsNamed(obs::SnapshotTrace(), "schemes.oracle.pass");
    WriteObsSnapshot(args.Require("dir") + "/obs.json", "perfbench schemes");
    obs::SetEnabled(false);
    VerifySchemes(traced, &out);
    const double search_s = TimeSearch(traced, &out);
    const auto& st = traced.oracle;
    const double pruned = static_cast<double>(traced.result.pairs_pruned);
    const double evaluated = static_cast<double>(traced.result.pairs_evaluated);
    out.Set("relation.read_csv_s", traced.read_s);
    out.Set("schemes.oracle_s", oracle_s);
    out.Set("schemes.search_s", search_s);
    out.Set("schemes.oracle.passes", static_cast<double>(st.passes));
    out.Set("schemes.oracle.rows_read", static_cast<double>(st.rows_read));
    out.Set("schemes.oracle.sets_counted",
            static_cast<double>(st.sets_counted));
    out.Set("schemes.oracle.memo_hit_ratio",
            st.memo_hits + st.sets_counted > 0
                ? static_cast<double>(st.memo_hits) /
                      static_cast<double>(st.memo_hits + st.sets_counted)
                : 0.0);
    out.Set("schemes.mine.prune_ratio",
            pruned + evaluated > 0 ? pruned / (pruned + evaluated) : 0.0);
    out.Set("trace_overhead_frac",
            (traced.seconds - untraced.seconds) / untraced.seconds);
    out.Set("unattributed_s",
            untraced.seconds - (traced.read_s + oracle_s + search_s));
    return out;
  }
  const MineJob job = RunMineJob(args);
  VerifySchemes(job, &out);
  SetBatchMetrics(job.seconds, &out);
  return out;
}

}  // namespace limbo::perfbench
