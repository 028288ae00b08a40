#include "serve/engine.h"

#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "model/fit.h"
#include "model/refit.h"
#include "relation/relation.h"
#include "relation/row_source.h"
#include "util/json.h"
#include "util/parallel.h"

namespace limbo::serve {
namespace {

using util::JsonValue;

std::vector<std::vector<std::string>> TestRows() {
  return {
      {"Boston", "MA", "02134", "alice"}, {"Boston", "MA", "02134", "alice"},
      {"Boston", "MA", "02134", "alice"}, {"Boston", "MA", "02134", "alice"},
      {"Denver", "CO", "80201", "bob"},   {"Denver", "CO", "80201", "carol"},
      {"Miami", "FL", "33101", "dave"},   {"Miami", "FL", "33101", "erin"},
      {"Austin", "TX", "73301", "frank"}, {"Austin", "TX", "73301", "grace"},
      {"Salem", "OR", "97301", "heidi"},  {"Salem", "OR", "97301", "ivan"},
  };
}

relation::Relation TestRelation() {
  auto schema = relation::Schema::Create({"City", "State", "Zip", "Name"});
  EXPECT_TRUE(schema.ok());
  relation::RelationBuilder builder(std::move(schema).value());
  for (const auto& row : TestRows()) {
    EXPECT_TRUE(builder.AddRow(row).ok());
  }
  return std::move(builder).Build();
}

model::ModelBundle FittedBundle() {
  model::FitOptions options;
  options.k = 3;
  auto bundle = model::FitModel(TestRelation(), options);
  EXPECT_TRUE(bundle.ok()) << bundle.status().ToString();
  return std::move(bundle).value();
}

Engine TestEngine(OovPolicy oov = OovPolicy::kDrop) {
  EngineOptions options;
  options.oov = oov;
  auto engine = Engine::FromBundle(FittedBundle(), options);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  return std::move(engine).value();
}

/// Engine over a bundle fitted with --schemes: carries a tag-11 section
/// so the `schemes` query has something to serve.
Engine SchemesEngine() {
  model::FitOptions options;
  options.k = 3;
  options.mine_schemes = true;
  auto bundle = model::FitModel(TestRelation(), options);
  EXPECT_TRUE(bundle.ok()) << bundle.status().ToString();
  EXPECT_TRUE(bundle->has_schemes);
  auto engine = Engine::FromBundle(std::move(bundle).value(), EngineOptions{});
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  return std::move(engine).value();
}

std::string AssignQuery(const std::vector<std::string>& fields) {
  std::string q = "{\"op\":\"assign\",\"row\":[";
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) q.push_back(',');
    util::AppendJsonString(fields[i], &q);
  }
  q += "]}";
  return q;
}

JsonValue ParseResponse(const std::string& response) {
  auto parsed = util::ParseJson(response);
  EXPECT_TRUE(parsed.ok()) << response;
  EXPECT_EQ(parsed->kind, JsonValue::Kind::kObject) << response;
  return std::move(parsed).value();
}

bool ResponseOk(const JsonValue& response) {
  const JsonValue* ok = response.Find("ok");
  return ok != nullptr && ok->kind == JsonValue::Kind::kBoolean &&
         ok->boolean;
}

// The acceptance criterion of the serving subsystem: assigning the
// fit-time rows through the engine reproduces the batch Phase-3 labels
// and losses bit for bit.
TEST(EngineTest, AssignIsBitIdenticalToBatchRun) {
  Engine engine = TestEngine();
  const model::ModelBundle& bundle = engine.bundle();
  const relation::Relation rel = TestRelation();
  core::LossKernel kernel;
  for (relation::TupleId t = 0; t < rel.NumTuples(); ++t) {
    std::vector<std::string> fields;
    for (relation::AttributeId a = 0; a < rel.NumAttributes(); ++a) {
      fields.push_back(rel.TextAt(t, a));
    }
    uint32_t label = 0;
    double loss = 0.0;
    size_t oov = 0;
    ASSERT_TRUE(
        engine.AssignRow(fields, &kernel, &label, &loss, &oov).ok());
    EXPECT_EQ(oov, 0u);
    EXPECT_EQ(label, bundle.assignments[t]) << "row " << t;
    EXPECT_EQ(std::memcmp(&loss, &bundle.assignment_loss[t], sizeof(double)),
              0)
        << "row " << t << ": loss " << loss << " vs batch "
        << bundle.assignment_loss[t];
  }
}

// Worker-count invariance: the same query stream through 1 and 4 lanes
// (per-lane kernels, static partition) yields byte-identical responses.
TEST(EngineTest, ResponsesBitIdenticalAcrossWorkerCounts) {
  Engine engine = TestEngine();
  std::vector<std::string> queries;
  for (const auto& row : TestRows()) queries.push_back(AssignQuery(row));
  queries.push_back("{\"op\":\"info\"}");
  queries.push_back("{\"op\":\"fds\",\"limit\":5}");
  queries.push_back("{\"op\":\"schemes\"}");  // typed error: no section

  auto run = [&](size_t workers) {
    util::ThreadPool pool(workers);
    std::vector<core::LossKernel> kernels(pool.threads());
    std::vector<std::string> responses(queries.size());
    pool.ParallelFor(0, queries.size(), 1,
                     [&](size_t begin, size_t end, size_t lane) {
                       for (size_t i = begin; i < end; ++i) {
                         responses[i] =
                             engine.HandleLine(queries[i], &kernels[lane]);
                       }
                     });
    return responses;
  };
  EXPECT_EQ(run(1), run(4));
}

TEST(EngineTest, CsvAndRowFormsAgree) {
  Engine engine = TestEngine();
  const std::string by_row = engine.HandleLine(
      "{\"op\":\"assign\",\"row\":[\"Boston\",\"MA\",\"02134\",\"alice\"]}");
  const std::string by_csv =
      engine.HandleLine("{\"op\":\"assign\",\"csv\":\"Boston,MA,02134,alice\"}");
  EXPECT_EQ(by_row, by_csv);
  EXPECT_TRUE(ResponseOk(ParseResponse(by_row)));
}

TEST(EngineTest, OovDropSpreadsOverKnownValues) {
  Engine engine = TestEngine(OovPolicy::kDrop);
  JsonValue response = ParseResponse(engine.HandleLine(
      "{\"op\":\"assign\",\"row\":[\"Boston\",\"MA\",\"02134\",\"zed\"]}"));
  ASSERT_TRUE(ResponseOk(response));
  ASSERT_NE(response.Find("oov"), nullptr);
  EXPECT_EQ(response.Find("oov")->integer, 1u);
  // Still lands on the Boston cluster: three of four values are known.
  JsonValue exact = ParseResponse(engine.HandleLine(
      "{\"op\":\"assign\",\"row\":[\"Boston\",\"MA\",\"02134\",\"alice\"]}"));
  EXPECT_EQ(response.Find("cluster")->integer,
            exact.Find("cluster")->integer);
}

TEST(EngineTest, OovStrictRejectsUnseenValues) {
  Engine engine = TestEngine(OovPolicy::kStrict);
  JsonValue response = ParseResponse(engine.HandleLine(
      "{\"op\":\"assign\",\"row\":[\"Boston\",\"MA\",\"02134\",\"zed\"]}"));
  EXPECT_FALSE(ResponseOk(response));
  EXPECT_EQ(response.Find("code")->str, "NotFound");
}

TEST(EngineTest, AllUnseenRowIsAnErrorEvenUnderDrop) {
  Engine engine = TestEngine(OovPolicy::kDrop);
  JsonValue response = ParseResponse(engine.HandleLine(
      "{\"op\":\"assign\",\"row\":[\"x\",\"y\",\"z\",\"w\"]}"));
  EXPECT_FALSE(ResponseOk(response));
  EXPECT_EQ(response.Find("code")->str, "NotFound");
}

TEST(EngineTest, ProtocolErrorsAreCleanResponses) {
  Engine engine = TestEngine();
  const std::vector<std::string> bad = {
      "not json at all",
      "[1,2,3]",
      "{}",
      "{\"op\":7}",
      "{\"op\":\"warp\"}",
      "{\"op\":\"assign\"}",
      "{\"op\":\"assign\",\"row\":[\"a\"],\"csv\":\"b\"}",
      "{\"op\":\"assign\",\"row\":[\"too\",\"short\"]}",
      "{\"op\":\"assign\",\"row\":[1,2,3,4]}",
      "{\"op\":\"assign\",\"csv\":\"line1\\nline2,b,c,d\"}",
      "{\"op\":\"fds\",\"limit\":\"ten\"}",
      "{\"op\":\"fds\",\"limit\":-1}",
      "{\"op\":\"fds\",\"limit\":2.5}",
      "{\"op\":\"valuegroup\"}",
      "{\"op\":\"valuegroup\",\"attr\":\"NoSuch\",\"value\":\"x\"}",
  };
  for (const std::string& query : bad) {
    JsonValue response = ParseResponse(engine.HandleLine(query));
    EXPECT_FALSE(ResponseOk(response)) << query;
    ASSERT_NE(response.Find("error"), nullptr) << query;
    ASSERT_NE(response.Find("code"), nullptr) << query;
  }
}

TEST(EngineTest, DuplicatesFlagsTheHeavyCluster) {
  Engine engine = TestEngine();
  // Boston×4 makes its cluster heavy; the row is a near-duplicate.
  JsonValue dup = ParseResponse(engine.HandleLine(
      "{\"op\":\"duplicates\",\"row\":[\"Boston\",\"MA\",\"02134\","
      "\"alice\"]}"));
  ASSERT_TRUE(ResponseOk(dup));
  EXPECT_TRUE(dup.Find("duplicate")->boolean);
  EXPECT_TRUE(dup.Find("heavy")->boolean);
  ASSERT_NE(dup.Find("loss"), nullptr);
  ASSERT_NE(dup.Find("limit"), nullptr);
}

TEST(EngineTest, ValueGroupReturnsCoOccurringMembers) {
  Engine engine = TestEngine();
  JsonValue response = ParseResponse(engine.HandleLine(
      "{\"op\":\"valuegroup\",\"attr\":\"City\",\"value\":\"Denver\"}"));
  ASSERT_TRUE(ResponseOk(response));
  EXPECT_EQ(response.Find("value")->str, "City=Denver");
  const JsonValue* members = response.Find("members");
  ASSERT_NE(members, nullptr);
  ASSERT_EQ(members->kind, JsonValue::Kind::kArray);
  // Denver co-occurs perfectly with CO and 80201.
  std::vector<std::string> names;
  for (const JsonValue& m : members->array) names.push_back(m.str);
  EXPECT_NE(std::find(names.begin(), names.end(), "State=CO"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "Zip=80201"), names.end());

  JsonValue missing = ParseResponse(engine.HandleLine(
      "{\"op\":\"valuegroup\",\"attr\":\"City\",\"value\":\"Atlantis\"}"));
  EXPECT_FALSE(ResponseOk(missing));
  EXPECT_EQ(missing.Find("code")->str, "NotFound");
}

TEST(EngineTest, AttrsReportsSchemaAndGrouping) {
  Engine engine = TestEngine();
  JsonValue response = ParseResponse(engine.HandleLine("{\"op\":\"attrs\"}"));
  ASSERT_TRUE(ResponseOk(response));
  const JsonValue* attributes = response.Find("attributes");
  ASSERT_NE(attributes, nullptr);
  ASSERT_EQ(attributes->array.size(), 4u);
  EXPECT_EQ(attributes->array[0].str, "City");
  const JsonValue* has_grouping = response.Find("has_grouping");
  ASSERT_NE(has_grouping, nullptr);
  if (has_grouping->boolean) {
    ASSERT_NE(response.Find("grouping"), nullptr);
    EXPECT_NE(response.Find("grouping")->Find("merges"), nullptr);
  }
}

TEST(EngineTest, FdsHonorsLimit) {
  Engine engine = TestEngine();
  JsonValue all = ParseResponse(engine.HandleLine("{\"op\":\"fds\"}"));
  ASSERT_TRUE(ResponseOk(all));
  const size_t total = all.Find("fds")->array.size();
  ASSERT_GT(total, 1u);
  JsonValue limited =
      ParseResponse(engine.HandleLine("{\"op\":\"fds\",\"limit\":1}"));
  ASSERT_TRUE(ResponseOk(limited));
  EXPECT_EQ(limited.Find("fds")->array.size(), 1u);
  // A negative limit gets the typed error the message promises — it must
  // not wrap through the unsigned cast into "no limit at all".
  JsonValue negative =
      ParseResponse(engine.HandleLine("{\"op\":\"fds\",\"limit\":-1}"));
  EXPECT_FALSE(ResponseOk(negative));
  ASSERT_NE(negative.Find("error"), nullptr);
  EXPECT_NE(negative.Find("error")->str.find("non-negative"),
            std::string::npos);
}

TEST(EngineTest, SchemesQueryServesTheMinedSection) {
  Engine engine = SchemesEngine();
  JsonValue all = ParseResponse(engine.HandleLine("{\"op\":\"schemes\"}"));
  ASSERT_TRUE(ResponseOk(all));
  ASSERT_NE(all.Find("epsilon"), nullptr);
  ASSERT_NE(all.Find("total_entropy"), nullptr);
  const JsonValue* schemes = all.Find("schemes");
  ASSERT_NE(schemes, nullptr);
  ASSERT_EQ(schemes->kind, JsonValue::Kind::kArray);
  const size_t total = schemes->array.size();
  ASSERT_GE(total, 1u);
  EXPECT_EQ(all.Find("count")->integer, total);
  // Every scheme decodes to attribute names and a finite J-measure.
  for (const JsonValue& s : schemes->array) {
    const JsonValue* bags = s.Find("bags");
    ASSERT_NE(bags, nullptr);
    ASSERT_GE(bags->array.size(), 2u);
    for (const JsonValue& bag : bags->array) {
      ASSERT_GE(bag.array.size(), 1u);
      EXPECT_EQ(bag.array[0].kind, JsonValue::Kind::kString);
    }
    ASSERT_NE(s.Find("separator"), nullptr);
    ASSERT_NE(s.Find("j_measure"), nullptr);
  }
  // `limit` truncates the sorted list, keeping the head; `count` still
  // reports the full section size, mirroring the info summary.
  JsonValue limited =
      ParseResponse(engine.HandleLine("{\"op\":\"schemes\",\"limit\":1}"));
  ASSERT_TRUE(ResponseOk(limited));
  ASSERT_EQ(limited.Find("schemes")->array.size(), 1u);
  EXPECT_EQ(limited.Find("count")->integer, total);
  // Same typed rejection of a negative limit as the fds handler.
  JsonValue negative =
      ParseResponse(engine.HandleLine("{\"op\":\"schemes\",\"limit\":-1}"));
  EXPECT_FALSE(ResponseOk(negative));
  ASSERT_NE(negative.Find("error"), nullptr);
  EXPECT_NE(negative.Find("error")->str.find("non-negative"),
            std::string::npos);
}

TEST(EngineTest, SchemesQueryOnPlainBundleIsATypedError) {
  Engine engine = TestEngine();  // fitted without --schemes
  JsonValue response =
      ParseResponse(engine.HandleLine("{\"op\":\"schemes\"}"));
  EXPECT_FALSE(ResponseOk(response));
  ASSERT_NE(response.Find("code"), nullptr);
  EXPECT_EQ(response.Find("code")->str, "no_schemes");
}

// Worker-count invariance holds for the schemes query too: the section
// is frozen at fit time, so serving it is a pure read.
TEST(EngineTest, SchemesResponsesBitIdenticalAcrossWorkerCounts) {
  Engine engine = SchemesEngine();
  std::vector<std::string> queries = {
      "{\"op\":\"schemes\"}", "{\"op\":\"schemes\",\"limit\":2}",
      "{\"op\":\"schemes\",\"limit\":1}", "{\"op\":\"info\"}"};
  auto run = [&](size_t workers) {
    util::ThreadPool pool(workers);
    std::vector<core::LossKernel> kernels(pool.threads());
    std::vector<std::string> responses(queries.size());
    pool.ParallelFor(0, queries.size(), 1,
                     [&](size_t begin, size_t end, size_t lane) {
                       for (size_t i = begin; i < end; ++i) {
                         responses[i] =
                             engine.HandleLine(queries[i], &kernels[lane]);
                       }
                     });
    return responses;
  };
  EXPECT_EQ(run(1), run(4));
}

TEST(EngineTest, InfoEchoesTheFitParameters) {
  Engine engine = TestEngine();
  JsonValue response = ParseResponse(engine.HandleLine("{\"op\":\"info\"}"));
  ASSERT_TRUE(ResponseOk(response));
  EXPECT_EQ(response.Find("rows")->integer, 12u);
  EXPECT_EQ(response.Find("attributes")->integer, 4u);
  EXPECT_EQ(response.Find("clusters")->integer,
            engine.bundle().representatives.size());
  EXPECT_EQ(response.Find("oov_policy")->str, "drop");
}

// The batching contract: evaluating N rows through one AssignBatch call
// yields bit-identical labels, losses and OOV counts to N AssignRow
// calls (batches of one) — including rows that fail (OOV under strict,
// all-unseen), whose statuses must match without poisoning their
// neighbours.
TEST(EngineTest, AssignBatchIsBitIdenticalToAssignRow) {
  Engine engine = TestEngine();
  std::vector<std::vector<std::string>> rows = TestRows();
  rows.push_back({"Boston", "MA", "02134", "zed"});  // one OOV value
  rows.push_back({"x", "y", "z", "w"});              // all unseen: error
  rows.push_back({"Miami", "FL", "33101", "erin"});  // valid after error

  core::LossKernel batch_kernel;
  const std::vector<RowAssignment> batch =
      engine.AssignBatch(rows, &batch_kernel);
  ASSERT_EQ(batch.size(), rows.size());

  core::LossKernel single_kernel;
  for (size_t i = 0; i < rows.size(); ++i) {
    uint32_t label = 0;
    double loss = 0.0;
    size_t oov = 0;
    util::Status status =
        engine.AssignRow(rows[i], &single_kernel, &label, &loss, &oov);
    EXPECT_EQ(batch[i].status.ok(), status.ok()) << "row " << i;
    if (!status.ok()) {
      EXPECT_EQ(batch[i].status.ToString(), status.ToString()) << "row " << i;
      continue;
    }
    EXPECT_EQ(batch[i].label, label) << "row " << i;
    EXPECT_EQ(batch[i].oov, oov) << "row " << i;
    EXPECT_EQ(std::memcmp(&batch[i].loss, &loss, sizeof(double)), 0)
        << "row " << i << ": batch " << batch[i].loss << " vs single "
        << loss;
  }
}

// HandleRequests (the engine's only dispatch, behind Registry::HandleBatch)
// must answer every request in a mixed batch — assign/duplicates rows,
// other ops, protocol errors — with exactly the bytes the same request
// gets alone (HandleLine, a batch of one).
TEST(EngineTest, HandleRequestsMatchesPerLineResponses) {
  Engine engine = TestEngine();
  std::vector<std::string> queries;
  for (const auto& row : TestRows()) queries.push_back(AssignQuery(row));
  queries.push_back(
      "{\"op\":\"duplicates\",\"row\":[\"Boston\",\"MA\",\"02134\","
      "\"alice\"]}");
  queries.push_back(
      "{\"op\":\"assign\",\"row\":[\"Boston\",\"MA\",\"02134\",\"zed\"]}");
  queries.push_back("{\"op\":\"assign\",\"row\":[\"x\",\"y\",\"z\",\"w\"]}");
  queries.push_back("{\"op\":\"assign\",\"row\":[\"too\",\"short\"]}");
  queries.push_back("{\"op\":\"assign\",\"csv\":\"Miami,FL,33101,dave\"}");
  queries.push_back("{\"op\":\"info\"}");
  queries.push_back("{\"op\":\"fds\",\"limit\":2}");
  queries.push_back("{\"op\":\"schemes\",\"limit\":2}");
  queries.push_back("{\"op\":\"warp\"}");

  std::vector<util::JsonValue> parsed;
  parsed.reserve(queries.size());
  for (const std::string& q : queries) {
    auto value = util::ParseJson(q);
    ASSERT_TRUE(value.ok()) << q;
    parsed.push_back(std::move(*value));
  }
  std::vector<const util::JsonValue*> requests;
  for (const util::JsonValue& v : parsed) requests.push_back(&v);

  core::LossKernel batch_kernel;
  const std::vector<std::string> batched =
      engine.HandleRequests(requests, &batch_kernel);
  ASSERT_EQ(batched.size(), queries.size());
  core::LossKernel single_kernel;
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(batched[i], engine.HandleLine(queries[i], &single_kernel))
        << queries[i];
  }
}

// The duplicate-row fast path: byte-identical rows in one batch are
// evaluated once and every copy reuses the first occurrence's result —
// error results included — while rows whose fields merely concatenate
// to the same bytes stay distinct (the key is length-prefixed).
TEST(EngineTest, AssignBatchDuplicateRowsShareOneEvaluation) {
  Engine engine = TestEngine();
  std::vector<std::vector<std::string>> rows;
  for (int i = 0; i < 5; ++i) {
    rows.push_back({"Boston", "MA", "02134", "alice"});
  }
  rows.push_back({"x", "y", "z", "w"});  // all-unseen: error
  rows.push_back({"x", "y", "z", "w"});  // duplicate of the error row
  rows.push_back({"Denver", "CO", "80201", "bob"});
  // Same concatenation as the Denver row, different field boundaries.
  rows.push_back({"DenverCO", "", "80201", "bob"});
  core::LossKernel kernel;
  const std::vector<RowAssignment> batch = engine.AssignBatch(rows, &kernel);
  ASSERT_EQ(batch.size(), rows.size());
  for (size_t i = 1; i < 5; ++i) {
    ASSERT_TRUE(batch[i].status.ok());
    EXPECT_EQ(batch[i].label, batch[0].label);
    EXPECT_EQ(batch[i].oov, batch[0].oov);
    EXPECT_EQ(std::memcmp(&batch[i].loss, &batch[0].loss, sizeof(double)), 0);
  }
  EXPECT_FALSE(batch[5].status.ok());
  EXPECT_EQ(batch[6].status.ToString(), batch[5].status.ToString());
  ASSERT_TRUE(batch[7].status.ok());
  ASSERT_TRUE(batch[8].status.ok());
  EXPECT_EQ(batch[7].oov, 0u);
  EXPECT_GT(batch[8].oov, 0u);  // "DenverCO" was never interned

  // And every result matches the per-row path bit for bit.
  for (size_t i = 0; i < rows.size(); ++i) {
    core::LossKernel single;
    uint32_t label = 0;
    double loss = 0.0;
    size_t oov = 0;
    util::Status status =
        engine.AssignRow(rows[i], &single, &label, &loss, &oov);
    ASSERT_EQ(batch[i].status.ok(), status.ok()) << "row " << i;
    if (!status.ok()) continue;
    EXPECT_EQ(batch[i].label, label) << "row " << i;
    EXPECT_EQ(batch[i].oov, oov) << "row " << i;
    EXPECT_EQ(std::memcmp(&batch[i].loss, &loss, sizeof(double)), 0)
        << "row " << i;
  }
}

// `info` surfaces the bundle's refit capability and lineage: null for a
// generation-0 fit, the full provenance object for a refit child.
TEST(EngineTest, InfoReportsRefitCapabilityAndLineage) {
  Engine engine = TestEngine();
  JsonValue info = ParseResponse(engine.HandleLine("{\"op\":\"info\"}"));
  ASSERT_TRUE(ResponseOk(info));
  ASSERT_NE(info.Find("refit_capable"), nullptr);
  EXPECT_TRUE(info.Find("refit_capable")->boolean);
  ASSERT_NE(info.Find("lineage"), nullptr);
  EXPECT_EQ(info.Find("lineage")->kind, JsonValue::Kind::kNull);
  ASSERT_NE(info.Find("checksum"), nullptr);
  EXPECT_EQ(info.Find("checksum")->str.size(), 16u);

  auto source = relation::CsvStringSource::Open(
      "City,State,Zip,Name\nBoston,MA,02134,alice\n");
  ASSERT_TRUE(source.ok());
  auto refit = model::RefitModel(FittedBundle(), *source);
  ASSERT_TRUE(refit.ok()) << refit.status().ToString();
  ASSERT_NE(refit->drift_class, model::DriftClass::kSevere);
  auto child = Engine::FromBundle(refit->bundle, EngineOptions());
  ASSERT_TRUE(child.ok());
  JsonValue child_info =
      ParseResponse(child->HandleLine("{\"op\":\"info\"}"));
  ASSERT_TRUE(ResponseOk(child_info));
  const JsonValue* lineage = child_info.Find("lineage");
  ASSERT_NE(lineage, nullptr);
  ASSERT_EQ(lineage->kind, JsonValue::Kind::kObject);
  EXPECT_EQ(lineage->Find("generation")->integer, 1u);
  EXPECT_EQ(lineage->Find("base_rows")->integer, 12u);
  EXPECT_EQ(lineage->Find("rows_absorbed")->integer, 1u);
  EXPECT_EQ(lineage->Find("drift_class")->str, "no-drift");
}

// The refit chain anchors every mass to the generation-0 row count, so
// a no-drift child must serve losses (not just labels) byte-identical
// to its parent — that invariance is what makes hot-reloading a
// refitted bundle invisible to clients.
TEST(EngineTest, RefittedChildServesByteIdenticalResponses) {
  Engine parent = TestEngine();
  auto source = relation::CsvStringSource::Open(
      "City,State,Zip,Name\nBoston,MA,02134,alice\nMiami,FL,33101,dave\n");
  ASSERT_TRUE(source.ok());
  auto refit = model::RefitModel(FittedBundle(), *source);
  ASSERT_TRUE(refit.ok()) << refit.status().ToString();
  ASSERT_EQ(refit->drift_class, model::DriftClass::kNone);
  auto child = Engine::FromBundle(refit->bundle, EngineOptions());
  ASSERT_TRUE(child.ok());
  const char* queries[] = {
      "{\"op\":\"assign\",\"csv\":\"Boston,MA,02134,alice\"}",
      "{\"op\":\"assign\",\"csv\":\"Miami,FL,33101,dave\"}",
      "{\"op\":\"assign\",\"csv\":\"Miami,MA,02134,carol\"}",
      "{\"op\":\"duplicates\",\"csv\":\"Boston,MA,02134,alice\"}",
  };
  for (const char* query : queries) {
    EXPECT_EQ(parent.HandleLine(query), child->HandleLine(query)) << query;
  }
}

TEST(EngineTest, RefusesEmptyBundle) {
  auto engine = Engine::FromBundle(model::ModelBundle(), EngineOptions());
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), util::StatusCode::kFailedPrecondition);
}

TEST(EngineTest, OpenRoundTripsThroughDisk) {
  const std::string path = testing::TempDir() + "/serve_engine.limbo";
  ASSERT_TRUE(model::Save(FittedBundle(), path).ok());
  auto engine = Engine::Open(path);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_TRUE(ResponseOk(ParseResponse(engine->HandleLine(
      "{\"op\":\"assign\",\"csv\":\"Miami,FL,33101,dave\"}"))));
}

}  // namespace
}  // namespace limbo::serve
