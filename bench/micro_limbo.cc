// Microbenchmarks (google-benchmark) for the core primitives and the
// LIMBO-vs-AIB scalability ablation the paper's Section 5.2 motivates:
// AIB is quadratic in the number of objects, LIMBO Phase 1 is near-linear
// with a bounded number of summaries.
//
// Two modes skip the google-benchmark suite and measure what neither
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
//    seconds. It exits 1 if any object's label or loss bits differ. Its
//    "phase2" table runs AIB over the same tuples' Phase-1 leaves (the
//    default fit's Phase 2, full dendrogram) on one lane: q, δI scored
//    against the q(q−1)/2 pairs of a full matrix, stale rows rescanned
//    and seconds. Exactness is KernelEquivalenceTest's gate.
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
//
// A mode rejects any flag it does not take and any number that does not
// parse in full with exit 2, so a mistyped gate flag can never leave its
// gate silently off. Without a mode, unknown arguments exit 2 as well.

#include <benchmark/benchmark.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <initializer_list>
#include <map>
#include <string>
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
#include "obs/counters.h"
#include "obs/report.h"
#include "relation/csv_io.h"
#include "relation/row_source.h"
#include "relation/source_stats.h"
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
/// the tuples against their heavy Phase-1 leaves (the duplicate-tuple
/// pass at its default φ_T = 0.1), and the same tuples against the k = 64
/// representatives of a φ = 0.5 LIMBO run. Returns the total mismatches.
size_t MeasureNearestCases(const std::vector<core::Dcf>& objects,
                           const std::vector<core::Dcf>& leaves,
                           obs::ReportTable* table) {
  std::vector<core::Dcf> heavy;
  const double single = 1.0 / static_cast<double>(objects.size());
  for (const core::Dcf& leaf : leaves) {
    if (leaf.p > single * 1.5) heavy.push_back(leaf);
  }
  size_t mismatches =
      MeasureNearestCase("tuples_vs_heavy_leaves", objects, heavy, table);
  core::LimboOptions options;
  options.phi = 0.5;
  options.k = 64;
  const core::LimboResult k64 = core::RunLimbo(objects, options).value();
  mismatches += MeasureNearestCase("tuples_vs_k64_representatives", objects,
                                   k64.representatives, table);
  return mismatches;
}

/// Phase 2 of the default fit: AIB over `leaves` down to one cluster, on
/// one lane. Appends q, the δI it scored, the q(q−1)/2 a full matrix
/// scores, the stale rows it rescanned (0 while obs is off) and its wall
/// time.
void MeasurePhase2(const std::vector<core::Dcf>& leaves,
                   obs::ReportTable* table) {
  core::AibOptions options;
  options.threads = 1;
  obs::Counter& rescans = obs::GetCounter("aib.nn_cache.misses");
  const uint64_t rescans_before = rescans.Value();
  const auto start = std::chrono::steady_clock::now();
  const core::AibResult result =
      core::AgglomerativeIb(leaves, options).value();
  const double seconds = Seconds(start);
  const size_t q = leaves.size();
  table->rows.push_back(
      {obs::ReportValue::Integer(q),
       obs::ReportValue::Integer(result.stats().distance_evals),
       obs::ReportValue::Integer(q * (q - 1) / 2),
       obs::ReportValue::Integer(rescans.Value() - rescans_before),
       obs::ReportValue::Number(seconds)});
}

/// Kernel benchmark mode: the micro sweep over support shapes, the
/// nearest-candidate search against the full scan, and Phase-2 AIB, on
/// 10k DBLP tuples (seed 1) and their φ_T = 0.1 Phase-1 leaves. Exits 1
/// if any object's label or loss bits differ from the full scan's.
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
  datagen::DblpOptions dblp;
  dblp.target_tuples = 10000;
  dblp.seed = 1;
  const std::vector<core::Dcf> objects =
      core::BuildTupleObjects(datagen::GenerateDblp(dblp));
  core::LimboOptions options;
  options.phi = 0.1;
  core::VectorDcfStream stream(objects);
  const std::vector<core::Dcf> leaves =
      core::SummarizePhase1(stream, options).value().leaves;
  const size_t mismatches =
      MeasureNearestCases(objects, leaves, &nearest.table);
  obs::ReportSection phase2("phase2");
  phase2.table.columns = {"q", "delta_i_scored", "delta_i_full", "rescans",
                          "seconds"};
  MeasurePhase2(leaves, &phase2.table);
  PrintReport("micro_limbo --kernel",
              {std::move(kernel), std::move(nearest), std::move(phase2)});
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
  // runs large inputs; with thousands of leaves Phase 2 would dominate
  // both arms and mask the ingest difference this benchmark exists to
  // measure.
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

  /// An integer >= min.
  size_t Size(const std::string& name, size_t fallback, size_t min) {
    auto it = values_.find(name);
    size_t value = fallback;
    if (it != values_.end() &&
        (!util::ParseSize(it->second, &value) || value < min)) {
      Reject(name, util::StrFormat("an integer >= %zu", min), it->second);
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
    if (arg == "--kernel" || arg == "--stream") mode = arg;
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
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 2;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
