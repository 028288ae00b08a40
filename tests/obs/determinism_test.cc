// Counter determinism across thread counts: the full LIMBO pipeline must
// produce identical totals for every non-scheduling counter whether it
// runs on 1 lane or 4. Scheduling counters (kernel scatters) may differ
// between the two; Phase 3's total, one SetObject per object, is itself
// schedule-invariant and asserted too.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "core/limbo.h"
#include "obs/counters.h"
#include "obs/trace.h"
#include "util/random.h"

namespace limbo::core {
namespace {

std::vector<Dcf> SyntheticObjects(size_t n, size_t groups, uint64_t seed) {
  util::Random rng(seed);
  std::vector<Dcf> objects;
  objects.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t base = static_cast<uint32_t>(i % groups) * 40;
    std::vector<uint32_t> support;
    for (uint32_t slot = 0; slot < 8; ++slot) {
      support.push_back(base + slot * 4 +
                        static_cast<uint32_t>(rng.Uniform(3)));
    }
    Dcf d;
    d.p = 1.0 / static_cast<double>(n);
    d.cond = SparseDistribution::UniformOver(support);
    objects.push_back(std::move(d));
  }
  return objects;
}

struct CounterRun {
  std::map<std::string, uint64_t> work;        // non-scheduling counters
  std::map<std::string, uint64_t> scheduling;  // thread-dependent split
};

CounterRun RunPipelineAt(size_t threads) {
  obs::SetEnabled(true);
  obs::ResetTrace();
  obs::ResetCounters();
  const std::vector<Dcf> objects = SyntheticObjects(300, 6, 7);
  LimboOptions options;
  // phi = 0 keeps every distinct object as a Phase-1 leaf, so the AIB
  // stage runs on hundreds of inputs — enough that its searches spread
  // over every lane.
  options.phi = 0.0;
  options.k = 6;
  options.threads = threads;
  auto result = RunLimbo(objects, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  CounterRun run;
  for (const obs::CounterValue& c : obs::SnapshotCounters()) {
    (c.scheduling ? run.scheduling : run.work)[c.name] = c.value;
  }
  return run;
}

uint64_t SumWithPrefix(const std::map<std::string, uint64_t>& counters,
                       const std::string& prefix) {
  uint64_t sum = 0;
  for (const auto& [name, value] : counters) {
    if (name.compare(0, prefix.size(), prefix) == 0) sum += value;
  }
  return sum;
}

TEST(CounterDeterminismTest, WorkCountersIdenticalAcrossThreadCounts) {
  const CounterRun serial = RunPipelineAt(1);
  const CounterRun parallel = RunPipelineAt(4);

  // The pipeline must have actually exercised the instrumented paths.
  EXPECT_GT(serial.work.at("aib.merges"), 0u);
  EXPECT_GT(serial.work.at("aib.distance_evals"), 0u);
  EXPECT_GT(serial.work.at("dcf_tree.inserts"), 0u);
  EXPECT_GT(serial.work.at("phase3.objects"), 0u);
  EXPECT_GT(serial.work.at("aib.kernel.loss_calls"), 0u);

  // Every work counter registered in either run must exist in both with
  // the same total: work is what was computed, not how it was scheduled.
  ASSERT_EQ(serial.work.size(), parallel.work.size());
  for (const auto& [name, value] : serial.work) {
    auto it = parallel.work.find(name);
    ASSERT_NE(it, parallel.work.end()) << "missing in parallel run: " << name;
    EXPECT_EQ(it->second, value) << "counter diverged: " << name;
  }
}

TEST(CounterDeterminismTest, SchedulingCountersBehaveAsDocumented) {
  const CounterRun serial = RunPipelineAt(1);
  const CounterRun parallel = RunPipelineAt(4);

  // Phase 3 calls SetObject once per object, so even though the counter
  // is registered as scheduling, its total is per-work-item and invariant.
  const uint64_t serial_p3 =
      SumWithPrefix(serial.scheduling, "phase3.kernel.scatters");
  const uint64_t parallel_p3 =
      SumWithPrefix(parallel.scheduling, "phase3.kernel.scatters");
  EXPECT_EQ(serial_p3, 300u);  // one scatter per object
  EXPECT_EQ(parallel_p3, 300u);

  // Each AIB lane keeps the row it last set as its kernel's object and
  // re-sets it only when the lane moves to another row, so the scatter
  // total depends on which lane scored which row — which is exactly why
  // these counters carry the scheduling flag. Both runs must scatter.
  EXPECT_GT(SumWithPrefix(serial.scheduling, "aib.kernel.scatters"), 0u);
  EXPECT_GT(SumWithPrefix(parallel.scheduling, "aib.kernel.scatters"), 0u);
}

TEST(CounterDeterminismTest, TraceCoversAllThreePhases) {
  obs::SetEnabled(true);
  obs::ResetTrace();
  obs::ResetCounters();
  const std::vector<Dcf> objects = SyntheticObjects(200, 4, 3);
  LimboOptions options;
  options.phi = 0.5;
  options.k = 4;
  auto result = RunLimbo(objects, options);
  ASSERT_TRUE(result.ok());
  const obs::SpanStats root = obs::SnapshotTrace();
  ASSERT_EQ(root.children.size(), 1u);
  const obs::SpanStats& limbo = root.children[0];
  EXPECT_EQ(limbo.name, "limbo");
  std::vector<std::string> phases;
  for (const obs::SpanStats& child : limbo.children) {
    phases.push_back(child.name);
  }
  EXPECT_EQ(phases,
            (std::vector<std::string>{"phase1", "phase2", "phase3"}));
  // phase2 wraps the AIB run, which records its own sub-spans.
  const obs::SpanStats& phase2 = limbo.children[1];
  ASSERT_EQ(phase2.children.size(), 1u);
  EXPECT_EQ(phase2.children[0].name, "aib");
}

}  // namespace
}  // namespace limbo::core
