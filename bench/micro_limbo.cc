// Microbenchmarks (google-benchmark) for the core primitives and the
// LIMBO-vs-AIB scalability ablation the paper's Section 5.2 motivates:
// AIB is quadratic in the number of objects, LIMBO Phase 1 is near-linear
// with a bounded number of summaries.
//
// Three modes skip the google-benchmark suite and measure what neither
// the repository benchmark (perfbench) nor ctest can. Each prints one
// RunReport JSON on stdout, the schema `limbo-tool --report` writes, with
// its own section first and the trace spans, work counters and the
// process's peak RSS after it:
//  * `micro_limbo --kernel` times the δI distance kernel across support
//    shapes: ns per evaluation of the per-pair formulation vs the arena
//    batch kernel, one row of the "kernel" table per shape. Bit identity
//    against the per-pair reference is KernelEquivalenceTest's gate. Its
//    "nearest" table runs the bound-pruned Phase-3 search on 10k DBLP
//    tuples (against their heavy Phase-1 leaves, and against k = 64
//    representatives) beside the full scan: δI scored by each and their
//    seconds. It exits 1 if any object's label or loss bits differ.
//  * `micro_limbo --stream [--tuples=N]` writes a DBLP-sized CSV, then
//    runs the streamed (RowSource + RunLimboStreamed) and materialized
//    (ReadCsv + RunLimbo) pipelines over it — each in its own child
//    process via /proc/self/exe, so a child's peak RSS isolates one arm.
//    Each child prints its own RunReport; the parent reads the arm's wall
//    time, leaf count and FNV-1a checksum over the full LimboResult from
//    its "stream_arm" section and its peak RSS from its "process" section,
//    and exits 0 iff the checksums match (the bit-identity contract).
//    (`--stream-arm=` / `--stream-csv=` are the internal child-process
//    protocol.)
//  * `micro_limbo --load [--tuples=N] [--connections=C]
//    [--serve-workers=W] [--load-seconds=S] [--p99-limit-us=X]
//    [--batch-max=B] [--cache-entries=E]` is the
//    closed-loop TCP load harness: two model bundles (k=10 and k=4 over
//    the same DBLP input) are frozen to disk and served by an in-process
//    serve::Server (reactor + worker-lane batching — the exact stack
//    behind limbo-serve), C client connections drive assign queries
//    routed across both models as fast as responses come back, and one
//    blue/green hot reload fires mid-run through the admin protocol.
//    --batch-max shapes the server's cross-connection batching (1
//    disables it); --cache-entries enables the registry's
//    version-keyed response cache (0 = off), so cache hits must survive
//    the mid-run reload byte-identically. Every response is
//    byte-compared against the engine-computed expectation for its
//    model; the run fails on any mismatched or dropped response, a
//    failed reload, or (when --p99-limit-us is given) an aggregate p99
//    above the ceiling. Its "serve_load" section records realized
//    batching (batches, mean_batch) and cache_hits.
//
// A mode rejects any flag it does not take and any number that does not
// parse in full with exit 2, so a mistyped gate flag can never leave its
// gate silently off. Without a mode, unknown arguments exit 2 as well.

#include <benchmark/benchmark.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <initializer_list>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/aib.h"
#include "core/limbo.h"
#include "core/run_report.h"
#include "core/tuple_clustering.h"
#include "datagen/db2_sample.h"
#include "datagen/dblp.h"
#include "fd/fdep.h"
#include "fd/partition.h"
#include "fd/tane.h"
#include "model/model_bundle.h"
#include "obs/report.h"
#include "relation/csv_io.h"
#include "relation/row_source.h"
#include "relation/source_stats.h"
#include "serve/engine.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "util/json.h"
#include "util/parallel.h"
#include "util/random.h"
#include "util/strings.h"

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

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Prints the RunReport of one mode on stdout: `sections` first, then the
/// spans, counters and process peak RSS every report ends with.
void PrintReport(const char* title, std::vector<obs::ReportSection> sections) {
  std::printf("%s\n",
              core::AssembleRunReport(title, std::move(sections))
                  .ToJson()
                  .c_str());
}

/// Per-pair reference δI: Eq. 3 through the generic JsDivergence, the
/// pre-kernel formulation every result is checked against.
double ReferencePairLoss(const core::Dcf& a, const core::Dcf& b) {
  const double total = a.p + b.p;
  if (total <= 0.0) return 0.0;
  return total * core::JsDivergence(a.p / total, a.cond, b.p / total, b.cond);
}

/// Measures one kernel case: 64 candidates of support `sc` scored against
/// one object of support `so`, per-pair formulation vs batch kernel.
/// Repeats until each arm has run for >= 50ms and appends ns per
/// evaluation to `table`.
void MeasureKernelCase(const char* name, size_t so, size_t sc, uint64_t seed,
                       obs::ReportTable* table) {
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
  double sink = 0.0;

  uint64_t evals = 0;
  auto start = std::chrono::steady_clock::now();
  while (Seconds(start) < 0.05) {
    for (const core::Dcf& c : candidates) sink += ReferencePairLoss(object, c);
    evals += kCandidates;
  }
  const double per_pair_ns = Seconds(start) * 1e9 / static_cast<double>(evals);

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
  const double batch_ns = Seconds(start) * 1e9 / static_cast<double>(evals);
  benchmark::DoNotOptimize(sink);

  double max_abs_diff = 0.0;  // batch vs per-pair, should be ~0
  kernel.SetObject(object.p, arena.Row(object_row));
  for (size_t i = 0; i < kCandidates; ++i) {
    const double diff = std::abs(kernel.Loss(cand_p[i], arena.Row(i)) -
                                 ReferencePairLoss(object, candidates[i]));
    max_abs_diff = std::max(max_abs_diff, diff);
  }
  table->rows.push_back(
      {obs::ReportValue::String(name), obs::ReportValue::Integer(so),
       obs::ReportValue::Integer(sc), obs::ReportValue::Number(per_pair_ns),
       obs::ReportValue::Number(batch_ns),
       obs::ReportValue::Number(batch_ns > 0.0 ? per_pair_ns / batch_ns : 0.0),
       obs::ReportValue::Number(max_abs_diff)});
}

/// Measures one nearest-candidate shape: every object's
/// core::FindNearestCandidate against `candidates` on one lane, then the
/// full scan. Appends the δI evaluations each arm made, both wall times
/// and the number of objects whose (label, loss bits) differ; returns
/// that number.
size_t MeasureNearestCase(const char* name,
                          const std::vector<core::Dcf>& objects,
                          const std::vector<core::Dcf>& candidates,
                          obs::ReportTable* table) {
  const core::CandidateSet set(candidates);
  core::LossKernel kernel;
  std::vector<core::NearestCandidate> nearest(objects.size());
  auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < objects.size(); ++i) {
    nearest[i] = core::FindNearestCandidate(&kernel, objects[i].p,
                                            objects[i].cond, set);
  }
  const double seconds = Seconds(start);
  // The full scan: every δI through InformationLossBatch (bit-identical
  // to InformationLoss per pair), strict-< argmin. It only checks, so it
  // runs on every lane; full_seconds is wall time at that lane count.
  start = std::chrono::steady_clock::now();
  std::vector<uint8_t> differs(objects.size(), 0);
  util::ThreadPool pool(0);
  pool.ParallelFor(0, objects.size(), 64, [&](size_t lo, size_t hi) {
    std::vector<double> losses(candidates.size());
    for (size_t i = lo; i < hi; ++i) {
      core::InformationLossBatch(objects[i], candidates, losses);
      uint32_t label = 0;
      double loss = std::numeric_limits<double>::infinity();
      for (size_t c = 0; c < losses.size(); ++c) {
        if (losses[c] < loss) {
          loss = losses[c];
          label = static_cast<uint32_t>(c);
        }
      }
      differs[i] = nearest[i].index != label ||
                   std::memcmp(&nearest[i].loss, &loss, sizeof(double)) != 0;
    }
  });
  const double full_seconds = Seconds(start);
  const size_t mismatches = std::count(differs.begin(), differs.end(), 1);
  table->rows.push_back(
      {obs::ReportValue::String(name),
       obs::ReportValue::Integer(objects.size()),
       obs::ReportValue::Integer(candidates.size()),
       obs::ReportValue::Integer(kernel.stats().loss_calls),
       obs::ReportValue::Integer(objects.size() * candidates.size()),
       obs::ReportValue::Number(seconds),
       obs::ReportValue::Number(full_seconds),
       obs::ReportValue::Integer(mismatches)});
  return mismatches;
}

/// The two nearest-candidate shapes the derived tools and serving run:
/// 10k DBLP tuples against their heavy Phase-1 leaves (the duplicate-tuple
/// pass at its default φ_T = 0.1), and the same tuples against the k = 64
/// representatives of a φ = 0.5 LIMBO run. Returns the total mismatches.
size_t MeasureNearestCases(obs::ReportTable* table) {
  datagen::DblpOptions dblp;
  dblp.target_tuples = 10000;
  dblp.seed = 1;
  const std::vector<core::Dcf> objects =
      core::BuildTupleObjects(datagen::GenerateDblp(dblp));
  core::LimboOptions options;
  options.phi = 0.1;
  core::VectorDcfStream stream(objects);
  const core::Phase1Summary phase1 =
      core::SummarizePhase1(stream, options).value();
  std::vector<core::Dcf> heavy;
  const double single = 1.0 / static_cast<double>(objects.size());
  for (const core::Dcf& leaf : phase1.leaves) {
    if (leaf.p > single * 1.5) heavy.push_back(leaf);
  }
  size_t mismatches =
      MeasureNearestCase("tuples_vs_heavy_leaves", objects, heavy, table);
  options.phi = 0.5;
  options.k = 64;
  const core::LimboResult k64 = core::RunLimbo(objects, options).value();
  mismatches += MeasureNearestCase("tuples_vs_k64_representatives", objects,
                                   k64.representatives, table);
  return mismatches;
}

/// Kernel benchmark mode: the micro sweep over support shapes, then the
/// nearest-candidate search against the full scan. Exits 1 if any
/// object's label or loss bits differ from the full scan's.
int RunKernelBench() {
  obs::ReportSection kernel("kernel");
  kernel.table.columns = {"case",
                          "object_support",
                          "candidate_support",
                          "per_pair_ns_per_eval",
                          "batch_ns_per_eval",
                          "speedup",
                          "max_abs_diff"};
  MeasureKernelCase("equal_8", 8, 8, 1, &kernel.table);
  MeasureKernelCase("equal_64", 64, 64, 2, &kernel.table);
  MeasureKernelCase("equal_512", 512, 512, 3, &kernel.table);
  MeasureKernelCase("small_obj_vs_4096", 8, 4096, 4, &kernel.table);
  MeasureKernelCase("large_obj_vs_8", 4096, 8, 5, &kernel.table);
  obs::ReportSection nearest("nearest");
  nearest.table.columns = {"shape",          "objects",
                           "candidates",     "delta_i_scored",
                           "delta_i_full",   "seconds",
                           "full_seconds",   "mismatches"};
  const size_t mismatches = MeasureNearestCases(&nearest.table);
  PrintReport("micro_limbo --kernel", {std::move(kernel), std::move(nearest)});
  if (mismatches > 0) {
    std::fprintf(stderr,
                 "micro_limbo --kernel: %zu objects differ from the full "
                 "scan\n",
                 mismatches);
    return 1;
  }
  return 0;
}

/// Child process of the `--stream` benchmark: runs one pipeline arm over
/// the CSV the parent wrote and prints its RunReport, whose "stream_arm"
/// section holds the wall time, leaf count and result checksum and whose
/// "process" section holds this process's own peak RSS, so the arms don't
/// contaminate each other.
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
  obs::ReportSection row("stream_arm");
  row.AddField("arm", arm);
  row.AddField("seconds", Seconds(start));
  row.AddField("leaves", static_cast<uint64_t>(result->leaves.size()));
  const unsigned long long checksum = bench::HashLimboResult(*result);
  row.AddField("checksum", util::StrFormat("%016llx", checksum));
  PrintReport("micro_limbo --stream-arm", {std::move(row)});
  return 0;
}

/// The field `key` of the top-level section `title` of `report`, or null.
const obs::ReportValue* FindField(const obs::RunReport& report,
                                  const std::string& title,
                                  const std::string& key) {
  for (const obs::ReportSection& section : report.sections) {
    if (section.title != title) continue;
    for (const auto& [name, value] : section.fields) {
      if (name == key) return &value;
    }
  }
  return nullptr;
}

/// One measured arm of the `--stream` benchmark, read back from the
/// child's report.
struct StreamArm {
  double seconds = 0.0;
  double peak_rss_mb = 0.0;
  uint64_t leaves = 0;
  std::string checksum;
};

/// Runs `cmd` and parses everything it printed on stdout as a child
/// arm's RunReport. False when the child fails or its report lacks a
/// field the parent reads.
bool RunStreamChild(const std::string& cmd, StreamArm* arm) {
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return false;
  std::string out;
  char chunk[4096];
  size_t n;
  while ((n = std::fread(chunk, 1, sizeof chunk, pipe)) > 0) {
    out.append(chunk, n);
  }
  if (pclose(pipe) != 0) return false;
  auto report = obs::RunReport::FromJson(out);
  if (!report.ok()) return false;
  const auto* seconds = FindField(*report, "stream_arm", "seconds");
  const auto* leaves = FindField(*report, "stream_arm", "leaves");
  const auto* checksum = FindField(*report, "stream_arm", "checksum");
  const auto* rss = FindField(*report, "process", "peak_rss_mb");
  using Kind = obs::ReportValue::Kind;
  if (seconds == nullptr || seconds->kind != Kind::kNumber ||
      leaves == nullptr || leaves->kind != Kind::kInteger ||
      checksum == nullptr || checksum->kind != Kind::kString ||
      rss == nullptr || rss->kind != Kind::kNumber) {
    return false;
  }
  arm->seconds = seconds->number;
  arm->leaves = leaves->integer;
  arm->checksum = checksum->str;
  arm->peak_rss_mb = rss->number;
  return true;
}

/// Parent of the `--stream` benchmark: writes the CSV, re-execs itself
/// once per arm (peak RSS is a process-lifetime maximum, so the arms must
/// not share an address space), and reports both arms side by side.
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
  obs::ReportSection stream("stream");
  stream.table.columns = {"arm", "seconds", "peak_rss_mb", "leaves",
                          "checksum"};
  StreamArm arms[2];
  const char* names[2] = {"streamed", "materialized"};
  for (int i = 0; i < 2; ++i) {
    const std::string cmd = std::string(exe) + " --stream-arm=" + names[i] +
                            " --stream-csv=" + csv;
    if (!RunStreamChild(cmd, &arms[i])) {
      std::fprintf(stderr, "stream arm %s failed\n", names[i]);
      unlink(csv.c_str());
      return 1;
    }
    stream.table.rows.push_back({obs::ReportValue::String(names[i]),
                                 obs::ReportValue::Number(arms[i].seconds),
                                 obs::ReportValue::Number(arms[i].peak_rss_mb),
                                 obs::ReportValue::Integer(arms[i].leaves),
                                 obs::ReportValue::String(arms[i].checksum)});
  }
  unlink(csv.c_str());
  const bool equivalent = arms[0].checksum == arms[1].checksum &&
                          arms[0].leaves == arms[1].leaves;
  stream.AddField("tuples", static_cast<uint64_t>(tuples));
  stream.AddField("k", 10);
  stream.AddField("equivalent", equivalent);
  stream.AddField("rss_ratio", arms[0].peak_rss_mb > 0.0
                                   ? arms[1].peak_rss_mb / arms[0].peak_rss_mb
                                   : 0.0);
  PrintReport("micro_limbo --stream", {std::move(stream)});
  return equivalent ? 0 : 1;
}

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

/// The assign query for row `t` of `rel`, routed to `model`.
std::string AssignQuery(const relation::Relation& rel, relation::TupleId t,
                        const std::string& model) {
  std::string q = "{\"op\":\"assign\",\"model\":";
  util::AppendJsonString(model, &q);
  q += ",\"row\":[";
  for (relation::AttributeId a = 0; a < rel.NumAttributes(); ++a) {
    if (a > 0) q.push_back(',');
    util::AppendJsonString(rel.TextAt(t, a), &q);
  }
  q += "]}";
  return q;
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
                 size_t cache_entries) {
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

  obs::ReportSection load("serve_load");
  load.AddField("tuples", static_cast<uint64_t>(rel.NumTuples()));
  load.AddField("models", 2);
  load.AddField("connections", static_cast<uint64_t>(connections));
  load.AddField("workers", static_cast<uint64_t>(workers));
  load.AddField("batch_max", static_cast<uint64_t>(batch_max));
  load.AddField("cache_entries", static_cast<uint64_t>(cache_entries));
  load.AddField("seconds", elapsed);
  load.AddField("requests", requests);
  load.AddField("qps", static_cast<double>(requests) / elapsed);
  load.AddField("p50_us", p50);
  load.AddField("p99_us", p99);
  load.AddField("batches", batches);
  load.AddField("mean_batch", batches == 0
                                  ? 0.0
                                  : static_cast<double>(batched_requests) /
                                        static_cast<double>(batches));
  load.AddField("cache_hits", cache_hits);
  load.AddField("reload_mid_run", reload_ok);
  load.AddField("sheds", sheds);
  load.AddField("mismatched", mismatched.load());
  load.AddField("bit_identical", bit_identical);
  PrintReport("micro_limbo --load", {std::move(load)});
  return (bit_identical && reload_ok && p99_ok) ? 0 : 1;
}

/// The `--name=value` flags of one mode, parsed strictly. Any flag the
/// mode does not take, and any number that does not parse in full, is
/// reported on stderr and clears ok(), and main exits 2.
class ModeFlags {
 public:
  /// Reads every argument except the mode flag `mode` itself; `known`
  /// lists the flag names the mode takes.
  ModeFlags(const std::string& mode, int argc, char** argv,
            std::initializer_list<const char*> known)
      : mode_(mode) {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == mode) continue;
      const size_t eq = arg.find('=');
      const std::string name =
          arg.substr(0, 2) == "--" && eq != std::string::npos
              ? arg.substr(2, eq - 2)
              : "";
      bool taken = false;
      for (const char* k : known) taken |= name == k;
      if (!taken) {
        std::fprintf(stderr, "micro_limbo %s: unknown flag %s\n",
                     mode.c_str(), arg.c_str());
        ok_ = false;
        continue;
      }
      values_[name] = arg.substr(eq + 1);
    }
  }

  bool ok() const { return ok_; }

  std::string Text(const std::string& name) const {
    auto it = values_.find(name);
    return it == values_.end() ? "" : it->second;
  }

  /// An integer in [min, max].
  size_t Size(const std::string& name, size_t fallback, size_t min = 0,
              size_t max = SIZE_MAX) {
    auto it = values_.find(name);
    size_t value = fallback;
    if (it != values_.end() &&
        (!util::ParseSize(it->second, &value) || value < min ||
         value > max)) {
      Reject(name,
             max == SIZE_MAX ? util::StrFormat("an integer >= %zu", min)
                             : util::StrFormat("an integer in [%zu, %zu]",
                                               min, max),
             it->second);
    }
    return value;
  }

  double Real(const std::string& name, double fallback) {
    auto it = values_.find(name);
    double value = fallback;
    if (it != values_.end() && !util::ParseReal(it->second, &value)) {
      Reject(name, "a finite number", it->second);
    }
    return value;
  }

 private:
  void Reject(const std::string& name, const std::string& expected,
              const std::string& got) {
    std::fprintf(stderr, "micro_limbo %s: --%s must be %s, got \"%s\"\n",
                 mode_.c_str(), name.c_str(), expected.c_str(), got.c_str());
    ok_ = false;
  }

  std::string mode_;
  std::map<std::string, std::string> values_;
  bool ok_ = true;
};

}  // namespace

int main(int argc, char** argv) {
  std::string mode;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--kernel" || arg == "--stream" || arg == "--load") mode = arg;
    if (arg.rfind("--stream-arm=", 0) == 0) mode = "--stream-arm";
  }
  if (mode == "--kernel") {
    const ModeFlags flags(mode, argc, argv, {});
    return flags.ok() ? RunKernelBench() : 2;
  }
  if (mode == "--stream-arm") {
    const ModeFlags flags(mode, argc, argv, {"stream-arm", "stream-csv"});
    if (!flags.ok()) return 2;
    return RunStreamArm(flags.Text("stream-arm"), flags.Text("stream-csv"));
  }
  if (mode == "--stream") {
    ModeFlags flags(mode, argc, argv, {"tuples"});
    const size_t tuples = flags.Size("tuples", 20000, 1);
    if (!flags.ok()) return 2;
    return RunStreamBench(tuples);
  }
  if (mode == "--load") {
    ModeFlags flags(mode, argc, argv,
                    {"tuples", "connections", "serve-workers", "load-seconds",
                     "p99-limit-us", "batch-max", "cache-entries"});
    const size_t tuples = flags.Size("tuples", 5000, 1);
    const size_t connections = flags.Size("connections", 8);
    const size_t serve_workers = flags.Size("serve-workers", 4);
    const double load_seconds = flags.Real("load-seconds", 2.0);
    const double p99_limit_us = flags.Real("p99-limit-us", 0.0);
    const size_t batch_max = flags.Size("batch-max", 16);
    const size_t cache_entries = flags.Size("cache-entries", 0);
    if (!flags.ok()) return 2;
    return RunLoadBench(tuples, std::max<size_t>(connections, 1),
                        std::max<size_t>(serve_workers, 1),
                        load_seconds > 0.0 ? load_seconds : 2.0, p99_limit_us,
                        std::max<size_t>(batch_max, 1), cache_entries);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 2;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
