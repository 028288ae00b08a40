// Serving and incremental refit at DBLP scale: a 2,000-tuple fit with
// refit state, replayed row by row through the engine and the registry.
// The planted-cluster tests in engine_test and registry_test pin the
// protocol on 12 rows; these pin the same contracts on a generator input
// large enough that Phase 1 summarizes and the refit patch path has a
// real tree to absorb into.

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/prob.h"
#include "datagen/dblp.h"
#include "gtest/gtest.h"
#include "model/fit.h"
#include "model/model_bundle.h"
#include "model/refit.h"
#include "obs/counters.h"
#include "relation/ops.h"
#include "relation/relation.h"
#include "relation/row_source.h"
#include "serve/engine.h"
#include "serve/registry.h"
#include "util/json.h"
#include "util/parallel.h"

namespace limbo::serve {
namespace {

constexpr size_t kTuples = 2000;
constexpr size_t kRefitRows = 20;

relation::Relation Dblp() {
  datagen::DblpOptions options;
  options.target_tuples = kTuples;
  return datagen::GenerateDblp(options);
}

/// φ_T = 1.0 bounds the Phase-1 leaf count the way the paper runs large
/// inputs; the fit keeps its refit state (the FitOptions default).
model::FitOptions GateFitOptions(size_t k = 10, double phi_t = 1.0) {
  model::FitOptions options;
  options.phi_t = phi_t;
  options.k = k;
  return options;
}

/// The assign query for row `t` of `rel`, routed to the default model.
std::string AssignQuery(const relation::Relation& rel, relation::TupleId t) {
  std::string q = "{\"op\":\"assign\",\"row\":[";
  for (relation::AttributeId a = 0; a < rel.NumAttributes(); ++a) {
    if (a > 0) q.push_back(',');
    util::AppendJsonString(rel.TextAt(t, a), &q);
  }
  q += "]}";
  return q;
}

std::vector<std::string> AssignQueries(const relation::Relation& rel) {
  std::vector<std::string> queries;
  queries.reserve(rel.NumTuples());
  for (relation::TupleId t = 0; t < rel.NumTuples(); ++t) {
    queries.push_back(AssignQuery(rel, t));
  }
  return queries;
}

// Every fit-time row served through the engine gets its batch label, and
// the response stream is the same bytes at 1 and 4 worker lanes, for
// k clusters. At k = 64 the nearest-representative search prunes
// hardest; φ_T = 1.0 leaves only 21 Phase-1 leaves here, so that case
// fits at φ_T = 0.5 (about 200 leaves).
class DblpServeRefitGate : public ::testing::TestWithParam<size_t> {};

TEST_P(DblpServeRefitGate, ServedLabelsEqualBatchAtOneAndFourWorkers) {
  const relation::Relation rel = Dblp();
  const size_t k = GetParam();
  auto bundle = model::FitModel(rel, GateFitOptions(k, k > 21 ? 0.5 : 1.0));
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  ASSERT_EQ(bundle->representatives.size(), k);
  const std::vector<uint32_t> batch = bundle->assignments;
  ASSERT_EQ(batch.size(), rel.NumTuples());
  auto engine = Engine::FromBundle(std::move(bundle).value(), {});
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  const std::vector<std::string> queries = AssignQueries(rel);
  auto replay = [&](size_t workers) {
    util::ThreadPool pool(workers);
    std::vector<core::LossKernel> kernels(pool.threads());
    std::vector<std::string> responses(queries.size());
    pool.ParallelFor(0, queries.size(), 64,
                     [&](size_t begin, size_t end, size_t lane) {
                       for (size_t i = begin; i < end; ++i) {
                         responses[i] =
                             engine->HandleLine(queries[i], &kernels[lane]);
                       }
                     });
    return responses;
  };
  const std::vector<std::string> serial = replay(1);
  for (size_t t = 0; t < serial.size(); ++t) {
    auto parsed = util::ParseJson(serial[t]);
    ASSERT_TRUE(parsed.ok()) << serial[t];
    const util::JsonValue* cluster = parsed->Find("cluster");
    ASSERT_NE(cluster, nullptr) << serial[t];
    EXPECT_EQ(cluster->integer, batch[t]) << "row " << t;
  }
  EXPECT_EQ(replay(4), serial);
}

INSTANTIATE_TEST_SUITE_P(K, DblpServeRefitGate, ::testing::Values(10, 64),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return std::to_string(info.param);
                         });

// Refitting fit-time rows takes the no-drift patch: the rows go into the
// frozen Phase-1 tree and nothing reruns AIB, so the patch beats the full
// fit by a wide margin, and the reloaded child answers every row exactly
// as its parent did.
TEST(DblpServeRefitGate, NoDriftRefitReloadsWithZeroMismatches) {
  const relation::Relation rel = Dblp();
  const auto fit_start = std::chrono::steady_clock::now();
  auto fitted = model::FitModel(rel, GateFitOptions());
  const std::chrono::duration<double> fit_time =
      std::chrono::steady_clock::now() - fit_start;
  ASSERT_TRUE(fitted.ok()) << fitted.status().ToString();

  const std::string path = ::testing::TempDir() + "dblp_gate_" +
                           std::to_string(getpid()) + ".limbo";
  ASSERT_TRUE(model::Save(*fitted, path).ok());
  auto parent = model::Load(path);
  ASSERT_TRUE(parent.ok()) << parent.status().ToString();

  Registry registry;
  ASSERT_TRUE(registry.AddModel("dblp", path).ok());
  core::LossKernel kernel;
  const std::vector<std::string> queries = AssignQueries(rel);
  std::vector<std::string> expected;
  expected.reserve(queries.size());
  for (const std::string& q : queries) {
    expected.push_back(registry.HandleLine(q, &kernel));
  }

  std::vector<relation::TupleId> head(kRefitRows);
  for (size_t t = 0; t < kRefitRows; ++t) {
    head[t] = static_cast<relation::TupleId>(t);
  }
  const relation::Relation batch = relation::SelectRows(rel, head);
  relation::RelationRowSource source(batch);
  obs::SetEnabled(true);
  obs::Counter& distance_evals = obs::GetCounter("aib.distance_evals");
  obs::Counter& inserts = obs::GetCounter("dcf_tree.inserts");
  const uint64_t evals_before = distance_evals.Value();
  const uint64_t inserts_before = inserts.Value();
  const auto refit_start = std::chrono::steady_clock::now();
  auto refit = model::RefitModel(*parent, source);
  const std::chrono::duration<double> refit_time =
      std::chrono::steady_clock::now() - refit_start;
  ASSERT_TRUE(refit.ok()) << refit.status().ToString();
  EXPECT_EQ(refit->drift_class, model::DriftClass::kNone);
  EXPECT_EQ(refit->rows_absorbed, kRefitRows);
  EXPECT_EQ(distance_evals.Value(), evals_before);
  EXPECT_EQ(inserts.Value() - inserts_before, kRefitRows);
  EXPECT_GE(fit_time.count(), 5.0 * refit_time.count())
      << "fit " << fit_time.count() << " s, refit " << refit_time.count()
      << " s";

  ASSERT_TRUE(model::Save(refit->bundle, path).ok());
  ASSERT_TRUE(registry.Reload("dblp").ok());
  const std::vector<ModelInfo> models = registry.ListModels();
  ASSERT_EQ(models.size(), 1u);
  EXPECT_EQ(models[0].version, 2u);
  ASSERT_TRUE(models[0].has_lineage);
  EXPECT_EQ(models[0].lineage.refit_generation, 1u);
  size_t mismatched = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    if (registry.HandleLine(queries[i], &kernel) != expected[i]) ++mismatched;
  }
  EXPECT_EQ(mismatched, 0u);
  ::unlink(path.c_str());
}

}  // namespace
}  // namespace limbo::serve
