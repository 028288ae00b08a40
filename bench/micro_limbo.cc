// Microbenchmarks (google-benchmark) for the core primitives and the
// LIMBO-vs-AIB scalability ablation the paper's Section 5.2 motivates:
// AIB is quadratic in the number of objects, LIMBO Phase 1 is near-linear
// with a bounded number of summaries.
//
// Special modes (skip the google-benchmark suite):
//  * `micro_limbo --thread-scaling [--tuples=N]` sweeps the LIMBO
//    worker-lane count over a DBLP-sized input, emitting one JSON object
//    (threads -> per-phase wall time) and cross-checking that every lane
//    count reproduces the serial merge sequence bit-for-bit.
//  * `micro_limbo --kernel [--tuples=N]` benchmarks the δI distance
//    kernel: the per-pair formulation vs the arena batch kernel across
//    support shapes, plus single-threaded Phase-2 + Phase-3 timings whose
//    results must match the per-pair reference (tests/reference) bit for
//    bit, else the exit status is 1. Its output is what
//    BENCH_kernel.json records.
//  * `micro_limbo --report[=path] [--tuples=N] [--refit-tuples=M]` runs
//    the full LIMBO pipeline once over a DBLP-sized input and emits a
//    structured run report (same schema as `limbo-tool --report=...`:
//    phases, merge trajectory, trace spans, counters) to `path` or
//    stdout, plus a "refit" section measuring the incremental-refit arm
//    at M tuples (default: the pipeline's N). Its output is what
//    BENCH_report.json records.
//  * `micro_limbo --stream [--tuples=N]` writes a DBLP-sized CSV, then
//    runs the streamed (RowSource + RunLimboStreamed) and materialized
//    (ReadCsv + RunLimbo) pipelines over it — each in its own child
//    process via /proc/self/exe, so getrusage peak RSS isolates one arm —
//    and emits one JSON object with both arms' wall time, peak RSS, and
//    an FNV-1a checksum over the full LimboResult. Exit 0 iff the
//    checksums match (the bit-identity contract). Its output is what
//    BENCH_stream.json records. (`--stream-arm=` / `--stream-csv=` are
//    the internal child-process protocol.)
//  * `micro_limbo --serve [--tuples=N]` measures the serve::Engine query
//    path: a model bundle is frozen from a DBLP-sized LIMBO run, every
//    row is replayed as an NDJSON assign query at 1 and 4 workers, and
//    the output records queries/sec plus p50/p99 latency per worker
//    count. Exit 0 iff the responses are byte-identical across worker
//    counts AND every served label equals the batch Phase-3 assignment.
//    Its output is what BENCH_serve.json records.
//  * `micro_limbo --load [--tuples=N] [--connections=C]
//    [--serve-workers=W] [--load-seconds=S] [--p99-limit-us=X]
//    [--batch-max=B] [--batch-wait-us=U] [--cache-entries=E]` is the
//    closed-loop TCP load harness: two model bundles (k=10 and k=4 over
//    the same DBLP input) are frozen to disk and served by an in-process
//    serve::Server (reactor + worker-lane batching — the exact stack
//    behind limbo-serve), C client connections drive assign queries
//    routed across both models as fast as responses come back, and one
//    blue/green hot reload fires mid-run through the admin protocol.
//    --batch-max/--batch-wait-us shape the server's cross-connection
//    batching (1 disables it); --cache-entries enables the registry's
//    version-keyed response cache (0 = off), so cache hits must survive
//    the mid-run reload byte-identically. Every response is
//    byte-compared against the engine-computed expectation for its
//    model; the run fails on any mismatched or dropped response, a
//    failed reload, or (when --p99-limit-us is given) an aggregate p99
//    above the ceiling. The output line records realized batching
//    (batches, mean_batch) and cache_hits; these lines are what the
//    serve_load arms of BENCH_serve.json record.
//  * `micro_limbo --refit [--tuples=N]` measures the incremental refit
//    path against the full fit it replaces: a bundle is fit at N DBLP
//    tuples (with refit state), ~1% of the rows are replayed through
//    `model::RefitModel` on the no-drift patch path, and the refitted
//    child is hot-reloaded into a serve::Registry where every replayed
//    assign response is byte-compared against the parent's. Exit 0 iff
//    the batch stayed no-drift, the patch was at least 5x faster than
//    the full fit, and zero responses mismatched after the reload. The
//    same measurement is the "refit" section of BENCH_report.json.
//  * `micro_limbo --schemes [--tuples=N]` measures the approximate
//    acyclic-scheme miner (schemes::MineAcyclicSchemes over the
//    partition-product entropy oracle) on the DB2 join sample and an
//    N-tuple DBLP input: wall time at 1 and 4 oracle lanes, scheme
//    count, J-measures, and oracle pass/prune statistics, one JSON line
//    per dataset. Exit 0 iff both lane counts mine the identical scheme
//    list on every dataset and DBLP yields at least one scheme. Its
//    output is what BENCH_schemes.json records.

#include <benchmark/benchmark.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/aib.h"
#include "core/dcf_tree.h"
#include "core/limbo.h"
#include "core/run_report.h"
#include "core/tuple_clustering.h"
#include "obs/counters.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "datagen/db2_sample.h"
#include "datagen/dblp.h"
#include "fd/fdep.h"
#include "fd/partition.h"
#include "fd/tane.h"
#include "model/fit.h"
#include "model/model_bundle.h"
#include "model/refit.h"
#include "reference/per_pair.h"
#include "relation/csv_io.h"
#include "relation/row_source.h"
#include "relation/source_stats.h"
#include "schemes/entropy_oracle.h"
#include "schemes/mine.h"
#include "serve/engine.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "util/json.h"
#include "util/parallel.h"
#include "util/random.h"

namespace {

using namespace limbo;  // NOLINT

/// Synthetic categorical objects: n objects over `groups` templates with
/// jitter, domain width ~3 values per slot.
std::vector<core::Dcf> SyntheticObjects(size_t n, size_t groups,
                                        uint64_t seed) {
  util::Random rng(seed);
  std::vector<core::Dcf> objects;
  objects.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t base = static_cast<uint32_t>(i % groups) * 40;
    std::vector<uint32_t> support;
    for (uint32_t slot = 0; slot < 8; ++slot) {
      support.push_back(base + slot * 4 +
                        static_cast<uint32_t>(rng.Uniform(3)));
    }
    core::Dcf d;
    d.p = 1.0 / static_cast<double>(n);
    d.cond = core::SparseDistribution::UniformOver(support);
    objects.push_back(std::move(d));
  }
  return objects;
}

void BM_JsDivergence(benchmark::State& state) {
  const size_t support = static_cast<size_t>(state.range(0));
  std::vector<uint32_t> a_ids;
  std::vector<uint32_t> b_ids;
  for (uint32_t i = 0; i < support; ++i) {
    a_ids.push_back(i * 2);      // evens
    b_ids.push_back(i * 2 + (i % 3 == 0 ? 0 : 1));  // overlap ~1/3
  }
  const auto p = core::SparseDistribution::UniformOver(a_ids);
  const auto q = core::SparseDistribution::UniformOver(b_ids);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::JsDivergence(0.5, p, 0.5, q));
  }
  state.SetItemsProcessed(state.iterations() * support);
}
BENCHMARK(BM_JsDivergence)->Arg(16)->Arg(256)->Arg(4096);

void BM_JsDivergenceAsymmetric(benchmark::State& state) {
  // Small object vs large cluster summary: the binary-search fast path.
  const size_t big = static_cast<size_t>(state.range(0));
  std::vector<uint32_t> big_ids(big);
  for (uint32_t i = 0; i < big; ++i) big_ids[i] = i;
  const auto q = core::SparseDistribution::UniformOver(big_ids);
  const auto p = core::SparseDistribution::UniformOver(
      std::vector<uint32_t>{1, 5, 9, 13, 17, 21, 25, 29});
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::JsDivergence(0.01, p, 0.99, q));
  }
}
BENCHMARK(BM_JsDivergenceAsymmetric)->Arg(1024)->Arg(65536);

void BM_AibFull(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto objects = SyntheticObjects(n, 8, 42);
  for (auto _ : state) {
    auto result = core::AgglomerativeIb(objects);
    benchmark::DoNotOptimize(result);
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_AibFull)->Arg(64)->Arg(128)->Arg(256)->Arg(512)->Complexity();

void BM_LimboPhase1(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto objects = SyntheticObjects(n, 8, 42);
  core::LimboOptions options;
  options.phi = 0.5;
  core::VectorDcfStream stream(objects);
  const double threshold = core::SummarizePhase1(stream, options)->threshold;
  for (auto _ : state) {
    auto leaves = core::LimboPhase1(objects, options, threshold);
    benchmark::DoNotOptimize(leaves);
  }
  state.SetComplexityN(static_cast<int64_t>(n));
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_LimboPhase1)
    ->Arg(1000)
    ->Arg(4000)
    ->Arg(16000)
    ->Arg(64000)
    ->Complexity();

void BM_LimboFull(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto objects = SyntheticObjects(n, 6, 7);
  core::LimboOptions options;
  options.phi = 0.5;
  options.k = 6;
  for (auto _ : state) {
    auto result = core::RunLimbo(objects, options);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_LimboFull)->Arg(5000)->Arg(20000);

void BM_PartitionProduct(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  util::Random rng(3);
  std::vector<std::string> header = {"A", "B"};
  relation::RelationBuilder builder(
      std::move(relation::Schema::Create(header)).value());
  for (size_t i = 0; i < n; ++i) {
    (void)builder.AddRow({"a" + std::to_string(rng.Uniform(50)),
                          "b" + std::to_string(rng.Uniform(50))});
  }
  const relation::Relation rel = std::move(builder).Build();
  const auto pa = fd::StrippedPartition::ForAttribute(rel, 0);
  const auto pb = fd::StrippedPartition::ForAttribute(rel, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fd::StrippedPartition::Product(pa, pb, n));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_PartitionProduct)->Arg(10000)->Arg(100000);

void BM_FdepDb2(benchmark::State& state) {
  auto rel = datagen::Db2Sample::JoinedRelation();
  for (auto _ : state) {
    benchmark::DoNotOptimize(fd::Fdep::Mine(*rel));
  }
}
BENCHMARK(BM_FdepDb2);

void BM_TaneDb2(benchmark::State& state) {
  auto rel = datagen::Db2Sample::JoinedRelation();
  for (auto _ : state) {
    benchmark::DoNotOptimize(fd::Tane::Mine(*rel));
  }
}
BENCHMARK(BM_TaneDb2);

void BM_TupleObjectsDb2(benchmark::State& state) {
  auto rel = datagen::Db2Sample::JoinedRelation();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::BuildTupleObjects(*rel));
  }
}
BENCHMARK(BM_TupleObjectsDb2);

/// Thread-scaling sweep: one RunLimbo per lane count over the DBLP
/// relation (the paper's large input), asserting bit-identical results.
int RunThreadScaling(size_t tuples) {
  datagen::DblpOptions dblp_options;
  dblp_options.target_tuples = tuples;
  const relation::Relation rel = datagen::GenerateDblp(dblp_options);
  const std::vector<core::Dcf> objects = core::BuildTupleObjects(rel);

  core::LimboOptions options;
  options.phi = 0.5;
  options.k = 10;

  const size_t thread_counts[] = {1, 2, 4, 8};
  std::vector<bench::ThreadScalingRow> rows;
  bool deterministic = true;
  std::vector<core::Merge> baseline_merges;
  std::vector<uint32_t> baseline_assignments;
  size_t leaves = 0;
  for (size_t threads : thread_counts) {
    options.threads = threads;
    auto result = core::RunLimbo(objects, options);
    if (!result.ok()) {
      std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
      return 1;
    }
    leaves = result->leaves.size();
    rows.push_back({threads, result->timings});
    if (threads == 1) {
      baseline_merges = result->aib.merges();
      baseline_assignments = result->assignments;
    } else {
      const auto& merges = result->aib.merges();
      bool same = merges.size() == baseline_merges.size() &&
                  result->assignments == baseline_assignments;
      for (size_t i = 0; same && i < merges.size(); ++i) {
        same = merges[i].left == baseline_merges[i].left &&
               merges[i].right == baseline_merges[i].right &&
               merges[i].delta_i == baseline_merges[i].delta_i;
      }
      deterministic = deterministic && same;
    }
  }
  bench::PrintThreadScalingJson("limbo_thread_scaling", objects.size(),
                                leaves, deterministic, rows);
  return deterministic ? 0 : 1;
}

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Per-pair reference δI: Eq. 3 through the generic JsDivergence, the
/// pre-kernel formulation every result is checked against.
double ReferencePairLoss(const core::Dcf& a, const core::Dcf& b) {
  const double total = a.p + b.p;
  if (total <= 0.0) return 0.0;
  return total * core::JsDivergence(a.p / total, a.cond, b.p / total, b.cond);
}

/// Measures one micro case: `n_candidates` candidates scored against one
/// object, per-pair formulation vs batch kernel. Repeats until each arm
/// has run for >= 50ms and reports ns per evaluation.
bench::KernelCaseRow MeasureKernelCase(const char* name, size_t so, size_t sc,
                                       uint64_t seed) {
  constexpr size_t kCandidates = 64;
  util::Random rng(seed);
  const uint32_t universe = static_cast<uint32_t>(2 * (so + sc));
  auto random_support = [&](size_t support) {
    std::vector<uint32_t> ids;
    ids.reserve(support);
    while (ids.size() < support) {
      const uint32_t id = static_cast<uint32_t>(rng.Uniform(universe));
      bool dup = false;
      for (uint32_t seen : ids) dup |= (seen == id);
      if (!dup) ids.push_back(id);
    }
    return core::SparseDistribution::UniformOver(ids);
  };
  core::Dcf object;
  object.p = 0.3;
  object.cond = random_support(so);
  std::vector<core::Dcf> candidates(kCandidates);
  core::DistributionArena arena;
  std::vector<double> cand_p(kCandidates);
  for (size_t i = 0; i < kCandidates; ++i) {
    candidates[i].p = 0.7 / static_cast<double>(kCandidates);
    candidates[i].cond = random_support(sc);
    cand_p[i] = candidates[i].p;
    arena.Append(candidates[i].cond);
  }
  // The batch arm reads both sides from the arena, exactly as the AIB
  // scans do (cached logs on object and candidates alike).
  const size_t object_row = arena.Append(object.cond);

  bench::KernelCaseRow row;
  row.name = name;
  row.object_support = so;
  row.candidate_support = sc;
  double sink = 0.0;

  uint64_t evals = 0;
  auto start = std::chrono::steady_clock::now();
  while (Seconds(start) < 0.05) {
    for (const core::Dcf& c : candidates) sink += ReferencePairLoss(object, c);
    evals += kCandidates;
  }
  row.per_pair_ns_per_eval = Seconds(start) * 1e9 / static_cast<double>(evals);

  core::LossKernel kernel;
  evals = 0;
  start = std::chrono::steady_clock::now();
  while (Seconds(start) < 0.05) {
    kernel.SetObject(object.p, arena.Row(object_row));
    for (size_t i = 0; i < kCandidates; ++i) {
      sink += kernel.Loss(cand_p[i], arena.Row(i));
    }
    evals += kCandidates;
  }
  row.batch_ns_per_eval = Seconds(start) * 1e9 / static_cast<double>(evals);
  benchmark::DoNotOptimize(sink);

  kernel.SetObject(object.p, arena.Row(object_row));
  for (size_t i = 0; i < kCandidates; ++i) {
    const double diff = std::abs(kernel.Loss(cand_p[i], arena.Row(i)) -
                                 ReferencePairLoss(object, candidates[i]));
    row.max_abs_diff = std::max(row.max_abs_diff, diff);
  }
  return row;
}

/// Kernel benchmark mode: micro sweep over support shapes, then the
/// single-threaded Phase-2 + Phase-3 hot path on the DBLP input, checked
/// bit for bit against the per-pair reference (tests/reference).
int RunKernelBench(size_t tuples) {
  std::vector<bench::KernelCaseRow> micro;
  micro.push_back(MeasureKernelCase("equal_8", 8, 8, 1));
  micro.push_back(MeasureKernelCase("equal_64", 64, 64, 2));
  micro.push_back(MeasureKernelCase("equal_512", 512, 512, 3));
  micro.push_back(MeasureKernelCase("small_obj_vs_4096", 8, 4096, 4));
  micro.push_back(MeasureKernelCase("large_obj_vs_8", 4096, 8, 5));

  datagen::DblpOptions dblp_options;
  dblp_options.target_tuples = tuples;
  const relation::Relation rel = datagen::GenerateDblp(dblp_options);
  const std::vector<core::Dcf> objects = core::BuildTupleObjects(rel);
  core::LimboOptions limbo_options;
  limbo_options.phi = 0.5;
  core::VectorDcfStream stream(objects);
  const std::vector<core::Dcf> leaves =
      core::SummarizePhase1(stream, limbo_options).value().leaves;

  bench::KernelEndToEndRow e2e;
  e2e.tuples = objects.size();
  e2e.leaves = leaves.size();

  core::AibOptions aib_options;
  aib_options.threads = 1;
  constexpr int kReps = 3;
  util::Result<core::AibResult> aib = util::Status::InvalidArgument("unset");
  e2e.phase2_batch_seconds = 1e30;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    aib = core::AgglomerativeIb(leaves, aib_options);
    e2e.phase2_batch_seconds =
        std::min(e2e.phase2_batch_seconds, Seconds(start));
  }
  if (!aib.ok()) {
    std::fprintf(stderr, "AIB failed\n");
    return 1;
  }
  const std::vector<core::Merge> ref_merges =
      reference::AibMerges(leaves, aib_options.min_k);
  const auto& bm = aib->merges();
  bool same = bm.size() == ref_merges.size();
  for (size_t i = 0; same && i < bm.size(); ++i) {
    same = bm[i].left == ref_merges[i].left &&
           bm[i].right == ref_merges[i].right &&
           bm[i].delta_i == ref_merges[i].delta_i &&
           bm[i].cumulative_loss == ref_merges[i].cumulative_loss;
  }

  const size_t k = std::min<size_t>(10, leaves.size());
  auto reps = core::ClusterDcfsAtK(leaves, *aib, k);
  if (!reps.ok()) {
    std::fprintf(stderr, "%s\n", reps.status().ToString().c_str());
    return 1;
  }
  std::vector<double> loss;
  util::Result<std::vector<uint32_t>> labels =
      util::Status::InvalidArgument("unset");
  e2e.phase3_batch_seconds = 1e30;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    labels = core::LimboPhase3(objects, *reps, &loss, 1);
    e2e.phase3_batch_seconds =
        std::min(e2e.phase3_batch_seconds, Seconds(start));
  }
  if (!labels.ok()) {
    std::fprintf(stderr, "Phase 3 failed\n");
    return 1;
  }
  const reference::Assignment ref = reference::AssignToNearest(objects, *reps);
  e2e.bit_identical = same && *labels == ref.labels && loss == ref.losses;

  bench::PrintKernelJson(micro, e2e);
  return e2e.bit_identical ? 0 : 1;
}

/// One measured refit arm: full-fit wall time vs the no-drift patch
/// path over the same DBLP input, plus the serve-side hot-reload gate
/// (parent served, refitted child swapped in, responses byte-compared).
struct RefitArmRow {
  size_t tuples = 0;
  size_t extra_rows = 0;
  double fit_seconds = 0.0;
  double refit_seconds = 0.0;
  double speedup = 0.0;
  double drift_score = 0.0;
  const char* drift_class = "?";
  bool reload_ok = false;
  size_t replayed = 0;
  uint64_t mismatched = 0;
};

util::Result<RefitArmRow> MeasureRefitArm(size_t tuples);

/// Run-report mode: one full LIMBO pipeline over DBLP, reported with the
/// exact schema `limbo-tool --report=...` writes, so tooling that parses
/// one parses the other. The report also carries a "refit" section —
/// the incremental-refit arm at `refit_tuples` — measured before the
/// pipeline so its spans and counters don't leak into the report's own.
int RunReportMode(size_t tuples, const std::string& path,
                  size_t refit_tuples) {
  auto refit_arm = MeasureRefitArm(refit_tuples);
  if (!refit_arm.ok()) {
    std::fprintf(stderr, "%s\n", refit_arm.status().ToString().c_str());
    return 1;
  }
  obs::ResetTrace();
  obs::ResetCounters();
  datagen::DblpOptions dblp_options;
  dblp_options.target_tuples = tuples;
  const relation::Relation rel = datagen::GenerateDblp(dblp_options);
  const std::vector<core::Dcf> objects = core::BuildTupleObjects(rel);

  core::LimboOptions options;
  options.phi = 0.5;
  options.k = 10;
  auto result = core::RunLimbo(objects, options);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }

  std::vector<obs::ReportSection> sections;
  obs::ReportSection run("run");
  run.AddField("command", "micro_limbo --report");
  run.AddField("input", "dblp");
  run.AddField("tuples", static_cast<uint64_t>(objects.size()));
  run.AddField("leaves", static_cast<uint64_t>(result->leaves.size()));
  run.AddField("k", static_cast<uint64_t>(options.k));
  sections.push_back(std::move(run));
  sections.push_back(core::TimingsSection(result->timings));
  sections.push_back(core::TrajectorySection(result->aib.merges()));
  obs::ReportSection refit("refit");
  refit.AddField("tuples", static_cast<uint64_t>(refit_arm->tuples));
  refit.AddField("appended_rows",
                 static_cast<uint64_t>(refit_arm->extra_rows));
  refit.AddField("full_fit_seconds", refit_arm->fit_seconds);
  refit.AddField("refit_seconds", refit_arm->refit_seconds);
  refit.AddField("speedup", refit_arm->speedup);
  refit.AddField("drift_score", refit_arm->drift_score);
  refit.AddField("drift_class", refit_arm->drift_class);
  refit.AddField("reload_bit_identical",
                 refit_arm->reload_ok && refit_arm->mismatched == 0);
  sections.push_back(std::move(refit));
  const obs::RunReport report = core::AssembleRunReport(
      "micro_limbo limbo-pipeline", std::move(sections));
  const std::string body = report.ToJson();
  if (path.empty()) {
    std::printf("%s\n", body.c_str());
    return 0;
  }
  std::ofstream file(path, std::ios::binary);
  if (!file) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  file << body;
  std::fprintf(stderr, "wrote run report %s (%zu bytes)\n", path.c_str(),
               body.size());
  return 0;
}

/// Child process of the `--stream` benchmark: runs one pipeline arm over
/// the CSV the parent wrote and prints a single JSON line with wall time,
/// peak RSS (its own, so the arms don't contaminate each other), and the
/// result checksum.
int RunStreamArm(const std::string& arm, const std::string& csv_path) {
  core::LimboOptions options;
  // φ = 1.0 keeps the Phase-1 summary count bounded the way the paper
  // runs large inputs; with thousands of leaves the quadratic Phase-2
  // matrix would dominate both arms' RSS and mask the ingest difference
  // this benchmark exists to measure.
  options.phi = 1.0;
  options.k = 10;
  const auto start = std::chrono::steady_clock::now();
  util::Result<core::LimboResult> result =
      util::Status::InvalidArgument("unset");
  if (arm == "streamed") {
    auto source = relation::CsvFileSource::Open(csv_path);
    if (!source.ok()) {
      std::fprintf(stderr, "%s\n", source.status().ToString().c_str());
      return 1;
    }
    auto stats = relation::CollectSourceStats(*source);
    if (!stats.ok()) {
      std::fprintf(stderr, "%s\n", stats.status().ToString().c_str());
      return 1;
    }
    core::TupleObjectStream objects(*source, *stats);
    result = core::RunLimboStreamed(objects, options);
  } else if (arm == "materialized") {
    auto rel = relation::ReadCsv(csv_path);
    if (!rel.ok()) {
      std::fprintf(stderr, "%s\n", rel.status().ToString().c_str());
      return 1;
    }
    const std::vector<core::Dcf> objects = core::BuildTupleObjects(*rel);
    result = core::RunLimbo(objects, options);
  } else {
    std::fprintf(stderr, "unknown --stream-arm=%s\n", arm.c_str());
    return 1;
  }
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  bench::StreamArmRow row;
  row.arm = arm;
  row.seconds = Seconds(start);
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  row.peak_rss_kb = static_cast<unsigned long long>(usage.ru_maxrss);
  row.leaves = result->leaves.size();
  row.checksum = bench::HashLimboResult(*result);
  bench::PrintStreamArmJson(row);
  return 0;
}

/// Parent of the `--stream` benchmark: writes the CSV, re-execs itself
/// once per arm (peak RSS is a process-lifetime maximum, so the arms must
/// not share an address space), and emits the combined record.
int RunStreamBench(size_t tuples) {
  datagen::DblpOptions dblp_options;
  dblp_options.target_tuples = tuples;
  const relation::Relation rel = datagen::GenerateDblp(dblp_options);
  const std::string csv =
      "/tmp/micro_limbo_stream_" + std::to_string(getpid()) + ".csv";
  util::Status s = relation::WriteCsv(rel, csv);
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  // Resolve our own binary before popen: the child shell's
  // /proc/self/exe would be the shell, not this benchmark.
  char exe[4096];
  const ssize_t exe_len = readlink("/proc/self/exe", exe, sizeof exe - 1);
  if (exe_len <= 0) {
    std::fprintf(stderr, "cannot resolve /proc/self/exe\n");
    unlink(csv.c_str());
    return 1;
  }
  exe[exe_len] = '\0';
  std::vector<bench::StreamArmRow> arms;
  for (const char* arm : {"streamed", "materialized"}) {
    const std::string cmd = std::string(exe) + " --stream-arm=" + arm +
                            " --stream-csv=" + csv;
    FILE* pipe = popen(cmd.c_str(), "r");
    if (pipe == nullptr) {
      std::fprintf(stderr, "cannot spawn %s\n", cmd.c_str());
      unlink(csv.c_str());
      return 1;
    }
    char line[512];
    const bool got = std::fgets(line, sizeof line, pipe) != nullptr;
    const int rc = pclose(pipe);
    bench::StreamArmRow row;
    char name[32] = {0};
    unsigned long long rss = 0;
    unsigned long long leaves = 0;
    unsigned long long checksum = 0;
    if (!got || rc != 0 ||
        std::sscanf(line,
                    "{\"arm\": \"%31[^\"]\", \"seconds\": %lf, "
                    "\"peak_rss_kb\": %llu, \"leaves\": %llu, "
                    "\"checksum\": \"%llx\"}",
                    name, &row.seconds, &rss, &leaves, &checksum) != 5) {
      std::fprintf(stderr, "stream arm %s failed (rc=%d)\n", arm, rc);
      unlink(csv.c_str());
      return 1;
    }
    row.arm = name;
    row.peak_rss_kb = rss;
    row.leaves = static_cast<size_t>(leaves);
    row.checksum = checksum;
    arms.push_back(std::move(row));
  }
  unlink(csv.c_str());
  const bool equivalent = arms.size() == 2 &&
                          arms[0].checksum == arms[1].checksum &&
                          arms[0].leaves == arms[1].leaves;
  bench::PrintStreamJson(tuples, /*k=*/10, equivalent, arms);
  return equivalent ? 0 : 1;
}

/// One worker-count arm of the serve benchmark.
struct ServeArmRow {
  size_t workers = 0;
  double qps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

/// Freezes the tuple-clustering artifacts of one LIMBO run at `k` into
/// a ModelBundle. The value-group / FD sections stay empty — assign
/// touches only the representatives and the dictionary, and fitting
/// them would dominate setup time.
util::Result<model::ModelBundle> FreezeTupleBundle(
    const relation::Relation& rel, const std::vector<core::Dcf>& objects,
    size_t k) {
  core::LimboOptions options;
  options.phi = 0.5;
  options.k = k;
  LIMBO_ASSIGN_OR_RETURN(core::LimboResult run,
                         core::RunLimbo(objects, options));
  model::ModelBundle bundle;
  bundle.num_rows = rel.NumTuples();
  bundle.phi_t = options.phi;
  bundle.mutual_information = run.mutual_information;
  bundle.threshold = run.threshold;
  bundle.schema = rel.schema();
  bundle.dictionary = rel.dictionary();
  bundle.representatives = std::move(run.representatives);
  bundle.assignments = std::move(run.assignments);
  bundle.assignment_loss = std::move(run.assignment_loss);
  return bundle;
}

/// The assign query for row `t` of `rel`, optionally routed to `model`.
std::string AssignQuery(const relation::Relation& rel, relation::TupleId t,
                        const std::string& model) {
  std::string q = "{\"op\":\"assign\",";
  if (!model.empty()) {
    q += "\"model\":";
    util::AppendJsonString(model, &q);
    q.push_back(',');
  }
  q += "\"row\":[";
  for (relation::AttributeId a = 0; a < rel.NumAttributes(); ++a) {
    if (a > 0) q.push_back(',');
    util::AppendJsonString(rel.TextAt(t, a), &q);
  }
  q += "]}";
  return q;
}

/// Serve-path benchmark: freeze one LIMBO run into a ModelBundle,
/// replay every row as an assign query, and measure throughput +
/// latency per worker count.
int RunServeBench(size_t tuples) {
  datagen::DblpOptions dblp_options;
  dblp_options.target_tuples = tuples;
  const relation::Relation rel = datagen::GenerateDblp(dblp_options);
  const std::vector<core::Dcf> objects = core::BuildTupleObjects(rel);
  auto bundle = FreezeTupleBundle(rel, objects, 10);
  if (!bundle.ok()) {
    std::fprintf(stderr, "%s\n", bundle.status().ToString().c_str());
    return 1;
  }
  const std::vector<uint32_t> batch_assignments = bundle->assignments;
  const size_t clusters = bundle->representatives.size();
  auto engine = serve::Engine::FromBundle(std::move(*bundle), {});
  if (!engine.ok()) {
    std::fprintf(stderr, "%s\n", engine.status().ToString().c_str());
    return 1;
  }

  std::vector<std::string> queries;
  queries.reserve(rel.NumTuples());
  for (relation::TupleId t = 0; t < rel.NumTuples(); ++t) {
    queries.push_back(AssignQuery(rel, t, ""));
  }

  std::vector<ServeArmRow> arms;
  std::vector<std::string> baseline;
  bool bit_identical = true;
  for (const size_t workers : {size_t{1}, size_t{4}}) {
    util::ThreadPool pool(workers);
    std::vector<core::LossKernel> kernels(pool.threads());
    std::vector<std::string> responses(queries.size());
    std::vector<std::vector<double>> lane_latencies(pool.threads());
    auto replay = [&](bool timed) {
      pool.ParallelFor(
          0, queries.size(), 64, [&](size_t begin, size_t end, size_t lane) {
            for (size_t i = begin; i < end; ++i) {
              const auto start = std::chrono::steady_clock::now();
              responses[i] = engine->HandleLine(queries[i], &kernels[lane]);
              if (timed) {
                lane_latencies[lane].push_back(
                    std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - start)
                        .count());
              }
            }
          });
    };
    replay(/*timed=*/false);  // warm up caches and the JSON parser path
    const auto start = std::chrono::steady_clock::now();
    replay(/*timed=*/true);
    const double elapsed = Seconds(start);

    std::vector<double> latencies;
    for (const auto& lane : lane_latencies) {
      latencies.insert(latencies.end(), lane.begin(), lane.end());
    }
    std::sort(latencies.begin(), latencies.end());
    ServeArmRow row;
    row.workers = workers;
    row.qps = static_cast<double>(queries.size()) / elapsed;
    row.p50_us = latencies[latencies.size() / 2];
    row.p99_us = latencies[latencies.size() * 99 / 100];
    arms.push_back(row);

    if (baseline.empty()) {
      baseline = responses;
      // The 1-worker pass also gates label fidelity: every served
      // cluster id must equal the batch Phase-3 assignment.
      for (size_t t = 0; t < responses.size(); ++t) {
        auto parsed = util::ParseJson(responses[t]);
        if (!parsed.ok() || parsed->Find("cluster") == nullptr ||
            parsed->Find("cluster")->integer != batch_assignments[t]) {
          bit_identical = false;
          break;
        }
      }
    } else {
      bit_identical = bit_identical && responses == baseline;
    }
  }

  std::printf("{\"benchmark\": \"serve\", \"tuples\": %zu, "
              "\"clusters\": %zu, \"bit_identical\": %s, \"arms\": [",
              rel.NumTuples(), clusters, bit_identical ? "true" : "false");
  for (size_t i = 0; i < arms.size(); ++i) {
    std::printf("%s{\"workers\": %zu, \"qps\": %.1f, \"p50_us\": %.2f, "
                "\"p99_us\": %.2f}",
                i > 0 ? ", " : "", arms[i].workers, arms[i].qps,
                arms[i].p50_us, arms[i].p99_us);
  }
  std::printf("]}\n");
  return bit_identical ? 0 : 1;
}

/// A blocking loopback NDJSON client for the load harness: one
/// connection, send a line, read a line.
class LoadClient {
 public:
  bool Connect(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    struct sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(port));
    if (::connect(fd_, reinterpret_cast<struct sockaddr*>(&addr),
                  sizeof(addr)) < 0) {
      ::close(fd_);
      fd_ = -1;
      return false;
    }
    return true;
  }

  ~LoadClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool Send(const std::string& line) {
    std::string framed = line;
    framed.push_back('\n');
    size_t sent = 0;
    while (sent < framed.size()) {
      const ssize_t w = ::send(fd_, framed.data() + sent,
                               framed.size() - sent, MSG_NOSIGNAL);
      if (w < 0 && errno == EINTR) continue;
      if (w <= 0) return false;
      sent += static_cast<size_t>(w);
    }
    return true;
  }

  /// Reads one '\n'-terminated response (without the newline). False on
  /// close or error.
  bool ReadLine(std::string* line) {
    line->clear();
    for (;;) {
      const size_t newline = buffered_.find('\n');
      if (newline != std::string::npos) {
        line->assign(buffered_, 0, newline);
        buffered_.erase(0, newline + 1);
        return true;
      }
      char chunk[4096];
      ssize_t n;
      do {
        n = ::recv(fd_, chunk, sizeof(chunk), 0);
      } while (n < 0 && errno == EINTR);
      if (n <= 0) return false;
      buffered_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffered_;
};

/// Closed-loop TCP load harness over the full serve::Server stack: a
/// 2-model registry, C concurrent client connections alternating models,
/// one blue/green hot reload mid-run, and a byte-exact check of every
/// response against the per-model expectation.
int RunLoadBench(size_t tuples, size_t connections, size_t workers,
                 double seconds, double p99_limit_us, size_t batch_max,
                 int batch_wait_us, size_t cache_entries) {
  datagen::DblpOptions dblp_options;
  dblp_options.target_tuples = tuples;
  const relation::Relation rel = datagen::GenerateDblp(dblp_options);
  const std::vector<core::Dcf> objects = core::BuildTupleObjects(rel);

  // Two genuinely different models over the same schema (k=10 vs k=4),
  // frozen to disk so the registry's reload path exercises a real load.
  const std::string stem =
      "/tmp/micro_limbo_load_" + std::to_string(getpid());
  const char* names[2] = {"wide", "narrow"};
  const size_t ks[2] = {10, 4};
  std::string paths[2];
  std::vector<std::string> expected[2];  // per-model response per row
  serve::Registry registry({}, cache_entries);
  for (int m = 0; m < 2; ++m) {
    auto bundle = FreezeTupleBundle(rel, objects, ks[m]);
    if (!bundle.ok()) {
      std::fprintf(stderr, "%s\n", bundle.status().ToString().c_str());
      return 1;
    }
    paths[m] = stem + "_" + names[m] + ".limbo";
    util::Status saved = model::Save(*bundle, paths[m]);
    if (!saved.ok()) {
      std::fprintf(stderr, "%s\n", saved.ToString().c_str());
      return 1;
    }
    auto engine = serve::Engine::FromBundle(std::move(*bundle), {});
    if (!engine.ok()) {
      std::fprintf(stderr, "%s\n", engine.status().ToString().c_str());
      return 1;
    }
    expected[m].reserve(rel.NumTuples());
    for (relation::TupleId t = 0; t < rel.NumTuples(); ++t) {
      expected[m].push_back(
          engine->HandleLine(AssignQuery(rel, t, names[m])));
    }
    util::Status added = registry.AddModel(names[m], paths[m]);
    if (!added.ok()) {
      std::fprintf(stderr, "%s\n", added.ToString().c_str());
      return 1;
    }
  }

  serve::ServerOptions server_options;
  server_options.port = 0;
  server_options.workers = workers;
  server_options.poll_ms = 20;
  server_options.batch_max = batch_max;
  server_options.batch_wait_us = batch_wait_us;
  auto server = serve::Server::Start(&registry, server_options);
  if (!server.ok()) {
    std::fprintf(stderr, "%s\n", server.status().ToString().c_str());
    return 1;
  }
  const int port = (*server)->port();
  std::atomic<int> stop_flag{0};
  std::thread acceptor([&server, &stop_flag] { (*server)->Run(&stop_flag); });

  // C closed-loop clients, model fixed per connection (even = wide, odd
  // = narrow), each verifying every response byte-for-byte.
  std::atomic<uint64_t> total_requests{0};
  std::atomic<uint64_t> mismatched{0};
  std::atomic<uint64_t> transport_errors{0};
  std::vector<std::vector<double>> latencies(connections);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(seconds);
  const auto run_start = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  clients.reserve(connections);
  for (size_t c = 0; c < connections; ++c) {
    clients.emplace_back([&, c] {
      const int m = static_cast<int>(c % 2);
      const std::vector<std::string>& want = expected[m];
      std::vector<std::string> queries;
      queries.reserve(rel.NumTuples());
      for (relation::TupleId t = 0; t < rel.NumTuples(); ++t) {
        queries.push_back(AssignQuery(rel, t, names[m]));
      }
      LoadClient client;
      if (!client.Connect(port)) {
        transport_errors.fetch_add(1);
        return;
      }
      std::string response;
      size_t t = c;  // stagger the row cursor across connections
      while (std::chrono::steady_clock::now() < deadline) {
        const size_t row = t++ % queries.size();
        const auto start = std::chrono::steady_clock::now();
        if (!client.Send(queries[row]) || !client.ReadLine(&response)) {
          transport_errors.fetch_add(1);
          return;
        }
        latencies[c].push_back(std::chrono::duration<double, std::micro>(
                                   std::chrono::steady_clock::now() - start)
                                   .count());
        total_requests.fetch_add(1);
        if (response != want[row]) mismatched.fetch_add(1);
      }
    });
  }

  // One blue/green hot reload of both models mid-run, through the admin
  // protocol like any other client.
  bool reload_ok = false;
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds / 2));
  {
    LoadClient admin;
    std::string response;
    if (admin.Connect(port) && admin.Send("{\"op\":\"reload\"}") &&
        admin.ReadLine(&response)) {
      reload_ok = response.find("\"ok\":true") != std::string::npos &&
                  response.find("\"version\":2") != std::string::npos;
      if (!reload_ok) {
        std::fprintf(stderr, "reload failed: %s\n", response.c_str());
      }
    } else {
      std::fprintf(stderr, "reload connection failed\n");
    }
  }

  for (std::thread& client : clients) client.join();
  const double elapsed = Seconds(run_start);
  stop_flag.store(1);
  acceptor.join();
  const uint64_t sheds = (*server)->sheds();
  const uint64_t batches = (*server)->batches();
  const uint64_t batched_requests = (*server)->batched_requests();
  const uint64_t cache_hits = registry.CacheHits();
  for (const std::string& path : paths) unlink(path.c_str());

  std::vector<double> all;
  for (const std::vector<double>& lane : latencies) {
    all.insert(all.end(), lane.begin(), lane.end());
  }
  std::sort(all.begin(), all.end());
  const double p50 = all.empty() ? 0.0 : all[all.size() / 2];
  const double p99 = all.empty() ? 0.0 : all[all.size() * 99 / 100];
  const uint64_t requests = total_requests.load();
  const bool bit_identical = mismatched.load() == 0 &&
                             transport_errors.load() == 0 && requests > 0;
  const bool p99_ok = p99_limit_us <= 0.0 || p99 <= p99_limit_us;
  if (!p99_ok) {
    std::fprintf(stderr, "p99 %.2fus exceeds --p99-limit-us=%.2f\n", p99,
                 p99_limit_us);
  }

  std::printf(
      "{\"benchmark\": \"serve_load\", \"tuples\": %zu, \"models\": 2, "
      "\"connections\": %zu, \"workers\": %zu, \"batch_max\": %zu, "
      "\"batch_wait_us\": %d, \"cache_entries\": %zu, \"seconds\": %.2f, "
      "\"requests\": %llu, \"qps\": %.1f, \"p50_us\": %.2f, "
      "\"p99_us\": %.2f, \"batches\": %llu, \"mean_batch\": %.2f, "
      "\"cache_hits\": %llu, \"reload_mid_run\": %s, \"sheds\": %llu, "
      "\"mismatched\": %llu, \"bit_identical\": %s}\n",
      rel.NumTuples(), connections, workers, batch_max, batch_wait_us,
      cache_entries, elapsed, static_cast<unsigned long long>(requests),
      static_cast<double>(requests) / elapsed, p50, p99,
      static_cast<unsigned long long>(batches),
      batches == 0 ? 0.0
                   : static_cast<double>(batched_requests) /
                         static_cast<double>(batches),
      static_cast<unsigned long long>(cache_hits),
      reload_ok ? "true" : "false",
      static_cast<unsigned long long>(sheds),
      static_cast<unsigned long long>(mismatched.load()),
      bit_identical ? "true" : "false");
  return (bit_identical && reload_ok && p99_ok) ? 0 : 1;
}

/// Escapes one CSV field per RFC 4180 (quoted when it holds a comma,
/// quote, or newline).
void AppendCsvField(const std::string& value, std::string* out) {
  if (value.find_first_of(",\"\n\r") == std::string::npos) {
    out->append(value);
    return;
  }
  out->push_back('"');
  for (const char c : value) {
    if (c == '"') out->push_back('"');
    out->push_back(c);
  }
  out->push_back('"');
}

util::Result<RefitArmRow> MeasureRefitArm(size_t tuples) {
  RefitArmRow row;
  datagen::DblpOptions dblp_options;
  dblp_options.target_tuples = tuples;
  const relation::Relation rel = datagen::GenerateDblp(dblp_options);
  row.tuples = rel.NumTuples();

  // The full fit is the refit's alternative, so it is what the speedup
  // is measured against. φ_T = 1.0 bounds the Phase-1 summary count the
  // way the paper runs large inputs (see the --stream arm) so the
  // quadratic Phase-2 matrix doesn't dominate the 100k-tuple run.
  model::FitOptions fit_options;
  fit_options.phi_t = 1.0;
  fit_options.k = 10;
  const auto fit_start = std::chrono::steady_clock::now();
  auto fitted = model::FitModel(rel, fit_options);
  row.fit_seconds = Seconds(fit_start);
  if (!fitted.ok()) return fitted.status();

  const std::string path =
      "/tmp/micro_limbo_refit_" + std::to_string(getpid()) + ".limbo";
  util::Status saved = model::Save(*fitted, path);
  if (!saved.ok()) return saved;
  auto parent = model::Load(path);  // picks up the payload checksum
  if (!parent.ok()) {
    unlink(path.c_str());
    return parent.status();
  }

  // Refit batch: ~1% of the input, replayed from fit-time rows so the
  // drift score lands on the no-drift patch path by construction.
  row.extra_rows = std::min<size_t>(rel.NumTuples(),
                                    std::max<size_t>(tuples / 100, 16));
  std::string csv;
  for (relation::AttributeId a = 0; a < rel.NumAttributes(); ++a) {
    if (a > 0) csv.push_back(',');
    AppendCsvField(rel.schema().Name(a), &csv);
  }
  csv.push_back('\n');
  for (size_t t = 0; t < row.extra_rows; ++t) {
    for (relation::AttributeId a = 0; a < rel.NumAttributes(); ++a) {
      if (a > 0) csv.push_back(',');
      AppendCsvField(rel.TextAt(static_cast<relation::TupleId>(t), a),
                     &csv);
    }
    csv.push_back('\n');
  }

  auto source = relation::CsvStringSource::Open(csv);
  if (!source.ok()) {
    unlink(path.c_str());
    return source.status();
  }
  const auto refit_start = std::chrono::steady_clock::now();
  auto refit = model::RefitModel(*parent, *source);
  row.refit_seconds = Seconds(refit_start);
  if (!refit.ok()) {
    unlink(path.c_str());
    return refit.status();
  }
  row.drift_score = refit->drift_score;
  row.drift_class = model::DriftClassName(refit->drift_class);
  row.speedup = row.refit_seconds > 0.0
                    ? row.fit_seconds / row.refit_seconds
                    : 0.0;

  // Hot-reload gate: serve the parent, precompute expected assign
  // responses, swap the refitted child in over the same path, replay.
  // The no-drift patch keeps representatives and dictionary entries
  // frozen, so every response must come back byte-identical.
  serve::Registry registry({}, 0);
  util::Status added = registry.AddModel("refit", path);
  if (!added.ok()) {
    unlink(path.c_str());
    return added;
  }
  row.replayed = std::min<size_t>(rel.NumTuples(), 20000);
  core::LossKernel kernel;
  std::vector<std::string> queries;
  std::vector<std::string> expected;
  queries.reserve(row.replayed);
  expected.reserve(row.replayed);
  for (size_t t = 0; t < row.replayed; ++t) {
    queries.push_back(
        AssignQuery(rel, static_cast<relation::TupleId>(t), "refit"));
    expected.push_back(registry.HandleLine(queries.back(), &kernel));
  }
  saved = model::Save(refit->bundle, path);
  if (!saved.ok()) {
    unlink(path.c_str());
    return saved;
  }
  const util::Status reloaded = registry.Reload("refit");
  bool lineage_ok = false;
  for (const serve::ModelInfo& info : registry.ListModels()) {
    lineage_ok = info.name == "refit" && info.version == 2 &&
                 info.has_lineage && info.lineage.refit_generation >= 1;
  }
  row.reload_ok = reloaded.ok() && lineage_ok;
  for (size_t i = 0; i < queries.size(); ++i) {
    if (registry.HandleLine(queries[i], &kernel) != expected[i]) {
      ++row.mismatched;
    }
  }
  unlink(path.c_str());
  return row;
}

/// Standalone `--refit` mode: one refit arm, one JSON line. Exit 0 iff
/// the batch stayed on the no-drift path, the patch beat the full fit
/// by at least 5x, and the reload gate saw zero mismatched responses.
int RunRefitBench(size_t tuples) {
  auto arm = MeasureRefitArm(tuples);
  if (!arm.ok()) {
    std::fprintf(stderr, "%s\n", arm.status().ToString().c_str());
    return 1;
  }
  const bool no_drift = std::strcmp(arm->drift_class, "no-drift") == 0;
  const bool speedup_ok = arm->speedup >= 5.0;
  const bool bit_identical = arm->reload_ok && arm->mismatched == 0;
  std::printf(
      "{\"benchmark\": \"refit\", \"tuples\": %zu, \"appended_rows\": %zu, "
      "\"full_fit_seconds\": %.4f, \"refit_seconds\": %.4f, "
      "\"speedup\": %.1f, \"drift_score\": %.4f, \"drift_class\": \"%s\", "
      "\"reload_ok\": %s, \"replayed\": %zu, \"mismatched\": %llu, "
      "\"bit_identical\": %s}\n",
      arm->tuples, arm->extra_rows, arm->fit_seconds, arm->refit_seconds,
      arm->speedup, arm->drift_score, arm->drift_class,
      arm->reload_ok ? "true" : "false", arm->replayed,
      static_cast<unsigned long long>(arm->mismatched),
      bit_identical ? "true" : "false");
  if (!speedup_ok) {
    std::fprintf(stderr, "refit speedup %.1fx below the 5x floor\n",
                 arm->speedup);
  }
  return (no_drift && speedup_ok && bit_identical) ? 0 : 1;
}

/// Standalone `--schemes` mode: the approximate acyclic-scheme miner on
/// the DB2 join sample and a DBLP-sized generator output. Each dataset
/// is mined twice — oracle at 1 lane and at 4 — and the scheme lists
/// (rendered text, J-measures included) must match exactly; the entropy
/// oracle's determinism contract makes them bit-identical. Exit 0 iff
/// every dataset agrees across lanes and DBLP yields >= 1 scheme.
int RunSchemesBench(size_t tuples) {
  struct Arm {
    const char* name;
    relation::Relation rel;
  };
  std::vector<Arm> arms;
  {
    auto db2 = datagen::Db2Sample::JoinedRelation();
    if (!db2.ok()) {
      std::fprintf(stderr, "%s\n", db2.status().ToString().c_str());
      return 1;
    }
    arms.push_back({"db2", std::move(*db2)});
    datagen::DblpOptions dblp_options;
    dblp_options.target_tuples = tuples;
    arms.push_back({"dblp", datagen::GenerateDblp(dblp_options)});
  }
  bool ok = true;
  for (Arm& arm : arms) {
    schemes::MineOptions options;
    std::string rendered[2];
    double seconds[2] = {0.0, 0.0};
    size_t count = 0;
    double total_entropy = 0.0;
    double min_j = 0.0;
    uint64_t pairs_pruned = 0;
    uint64_t pairs_evaluated = 0;
    uint64_t oracle_sets = 0;
    for (int lane = 0; lane < 2; ++lane) {
      relation::RelationRowSource source(arm.rel);
      schemes::EntropyOracleOptions oracle_options;
      oracle_options.threads = lane == 0 ? 1 : 4;
      schemes::EntropyOracle oracle(source, oracle_options);
      const auto start = std::chrono::steady_clock::now();
      auto mined = schemes::MineAcyclicSchemes(oracle, options);
      seconds[lane] = Seconds(start);
      if (!mined.ok()) {
        std::fprintf(stderr, "%s\n", mined.status().ToString().c_str());
        return 1;
      }
      count = mined->schemes.size();
      total_entropy = mined->total_entropy;
      min_j = mined->schemes.empty() ? 0.0 : mined->schemes[0].j_measure;
      pairs_pruned = mined->pairs_pruned;
      pairs_evaluated = mined->pairs_evaluated;
      oracle_sets = oracle.stats().sets_counted;
      for (const auto& scheme : mined->schemes) {
        rendered[lane] += scheme.ToString(arm.rel.schema());
        rendered[lane].push_back('\n');
      }
    }
    const bool lane_identical = rendered[0] == rendered[1];
    std::printf(
        "{\"benchmark\": \"schemes\", \"dataset\": \"%s\", \"tuples\": %zu, "
        "\"attributes\": %zu, \"epsilon\": %.4f, \"schemes\": %zu, "
        "\"total_entropy\": %.4f, \"best_j\": %.6f, \"pairs_pruned\": %llu, "
        "\"pairs_evaluated\": %llu, \"oracle_sets\": %llu, "
        "\"seconds_1_lane\": %.4f, \"seconds_4_lanes\": %.4f, "
        "\"lane_identical\": %s}\n",
        arm.name, arm.rel.NumTuples(), arm.rel.NumAttributes(),
        options.epsilon, count, total_entropy, min_j,
        static_cast<unsigned long long>(pairs_pruned),
        static_cast<unsigned long long>(pairs_evaluated),
        static_cast<unsigned long long>(oracle_sets), seconds[0], seconds[1],
        lane_identical ? "true" : "false");
    if (!lane_identical) {
      std::fprintf(stderr, "%s: scheme lists differ between 1 and 4 lanes\n",
                   arm.name);
      ok = false;
    }
    if (std::strcmp(arm.name, "dblp") == 0 && count == 0) {
      std::fprintf(stderr, "dblp: expected at least one acyclic scheme\n");
      ok = false;
    }
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool thread_scaling = false;
  bool kernel_bench = false;
  bool report_mode = false;
  bool stream_bench = false;
  bool serve_bench = false;
  bool load_bench = false;
  bool refit_bench = false;
  bool schemes_bench = false;
  size_t refit_tuples = 0;
  std::string stream_arm;
  std::string stream_csv;
  std::string report_path;
  size_t tuples = 50000;
  bool tuples_given = false;
  size_t connections = 8;
  size_t serve_workers = 4;
  double load_seconds = 2.0;
  double p99_limit_us = 0.0;
  size_t batch_max = 16;
  int batch_wait_us = 0;
  size_t cache_entries = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--thread-scaling") == 0) {
      thread_scaling = true;
    } else if (std::strcmp(argv[i], "--kernel") == 0) {
      kernel_bench = true;
    } else if (std::strcmp(argv[i], "--stream") == 0) {
      stream_bench = true;
    } else if (std::strcmp(argv[i], "--serve") == 0) {
      serve_bench = true;
    } else if (std::strcmp(argv[i], "--load") == 0) {
      load_bench = true;
    } else if (std::strcmp(argv[i], "--refit") == 0) {
      refit_bench = true;
    } else if (std::strcmp(argv[i], "--schemes") == 0) {
      schemes_bench = true;
    } else if (std::strncmp(argv[i], "--refit-tuples=", 15) == 0) {
      refit_tuples = static_cast<size_t>(std::strtoull(argv[i] + 15,
                                                       nullptr, 10));
    } else if (std::strncmp(argv[i], "--connections=", 14) == 0) {
      connections = static_cast<size_t>(std::strtoull(argv[i] + 14,
                                                      nullptr, 10));
    } else if (std::strncmp(argv[i], "--serve-workers=", 16) == 0) {
      serve_workers = static_cast<size_t>(std::strtoull(argv[i] + 16,
                                                        nullptr, 10));
    } else if (std::strncmp(argv[i], "--load-seconds=", 15) == 0) {
      load_seconds = std::strtod(argv[i] + 15, nullptr);
    } else if (std::strncmp(argv[i], "--p99-limit-us=", 15) == 0) {
      p99_limit_us = std::strtod(argv[i] + 15, nullptr);
    } else if (std::strncmp(argv[i], "--batch-max=", 12) == 0) {
      batch_max = static_cast<size_t>(std::strtoull(argv[i] + 12,
                                                    nullptr, 10));
    } else if (std::strncmp(argv[i], "--batch-wait-us=", 16) == 0) {
      batch_wait_us = static_cast<int>(std::strtol(argv[i] + 16,
                                                   nullptr, 10));
    } else if (std::strncmp(argv[i], "--cache-entries=", 16) == 0) {
      cache_entries = static_cast<size_t>(std::strtoull(argv[i] + 16,
                                                        nullptr, 10));
    } else if (std::strncmp(argv[i], "--stream-arm=", 13) == 0) {
      stream_arm = argv[i] + 13;
    } else if (std::strncmp(argv[i], "--stream-csv=", 13) == 0) {
      stream_csv = argv[i] + 13;
    } else if (std::strcmp(argv[i], "--report") == 0) {
      report_mode = true;
    } else if (std::strncmp(argv[i], "--report=", 9) == 0) {
      report_mode = true;
      report_path = argv[i] + 9;
    } else {
      unsigned long long n = 0;
      if (std::sscanf(argv[i], "--tuples=%llu", &n) == 1 && n > 0) {
        tuples = static_cast<size_t>(n);
        tuples_given = true;
      }
    }
  }
  if (!stream_arm.empty()) return RunStreamArm(stream_arm, stream_csv);
  if (stream_bench) return RunStreamBench(tuples_given ? tuples : 20000);
  if (serve_bench) return RunServeBench(tuples_given ? tuples : 10000);
  if (load_bench) {
    if (connections == 0) connections = 1;
    if (serve_workers == 0) serve_workers = 1;
    if (load_seconds <= 0.0) load_seconds = 2.0;
    if (batch_max == 0) batch_max = 1;
    if (batch_wait_us < 0) batch_wait_us = 0;
    return RunLoadBench(tuples_given ? tuples : 5000, connections,
                        serve_workers, load_seconds, p99_limit_us,
                        batch_max, batch_wait_us, cache_entries);
  }
  if (refit_bench) return RunRefitBench(tuples_given ? tuples : 20000);
  if (schemes_bench) return RunSchemesBench(tuples_given ? tuples : 20000);
  if (thread_scaling) return RunThreadScaling(tuples);
  if (kernel_bench) return RunKernelBench(tuples_given ? tuples : 10000);
  if (report_mode) {
    const size_t report_tuples = tuples_given ? tuples : 10000;
    return RunReportMode(report_tuples, report_path,
                         refit_tuples > 0 ? refit_tuples : report_tuples);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
