#include "serve/registry.h"

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/prob.h"
#include "datagen/db2_sample.h"
#include "gtest/gtest.h"
#include "model/fit.h"
#include "model/model_bundle.h"
#include "model/refit.h"
#include "relation/relation.h"
#include "relation/row_source.h"
#include "util/json.h"

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

/// Fits a k-cluster bundle over the shared test relation and freezes it
/// to a unique temp path. Returns the path.
std::string SaveBundle(size_t k, const std::string& tag) {
  model::FitOptions options;
  options.k = k;
  auto bundle = model::FitModel(TestRelation(), options);
  EXPECT_TRUE(bundle.ok()) << bundle.status().ToString();
  const std::string path = testing::TempDir() + "registry_test_" + tag +
                           "_" + std::to_string(getpid()) + ".limbo";
  EXPECT_TRUE(model::Save(*bundle, path).ok());
  return path;
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

std::string ErrorCode(const JsonValue& response) {
  const JsonValue* code = response.Find("code");
  return code != nullptr && code->kind == JsonValue::Kind::kString
             ? code->str
             : "";
}

double NumberField(const JsonValue& response, const char* key) {
  const JsonValue* field = response.Find(key);
  EXPECT_NE(field, nullptr) << key;
  if (field == nullptr) return -1.0;
  if (field->kind == JsonValue::Kind::kInteger) {
    return static_cast<double>(field->integer);
  }
  EXPECT_EQ(field->kind, JsonValue::Kind::kNumber) << key;
  return field->number;
}

class RegistryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    wide_path_ = SaveBundle(3, "wide");
    narrow_path_ = SaveBundle(2, "narrow");
  }

  void TearDown() override {
    ::unlink(wide_path_.c_str());
    ::unlink(narrow_path_.c_str());
  }

  std::string wide_path_;
  std::string narrow_path_;
};

TEST_F(RegistryTest, FirstModelBecomesDefault) {
  Registry registry;
  ASSERT_TRUE(registry.AddModel("wide", wide_path_).ok());
  ASSERT_TRUE(registry.AddModel("narrow", narrow_path_).ok());
  EXPECT_EQ(registry.NumModels(), 2u);
  EXPECT_EQ(registry.DefaultName(), "wide");
  ASSERT_TRUE(registry.SetDefault("narrow").ok());
  EXPECT_EQ(registry.DefaultName(), "narrow");
  EXPECT_FALSE(registry.SetDefault("missing").ok());
}

TEST_F(RegistryTest, DuplicateNameIsRejected) {
  Registry registry;
  ASSERT_TRUE(registry.AddModel("m", wide_path_).ok());
  const util::Status status = registry.AddModel("m", narrow_path_);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(registry.NumModels(), 1u);
}

TEST_F(RegistryTest, MissingBundleRegistersNothing) {
  Registry registry;
  EXPECT_FALSE(registry.AddModel("m", "/nonexistent/never.limbo").ok());
  EXPECT_EQ(registry.NumModels(), 0u);
  EXPECT_EQ(registry.Lookup(""), nullptr);
}

TEST_F(RegistryTest, AddDirectoryScansSortedLimboFiles) {
  const std::string dir =
      testing::TempDir() + "registry_dir_" + std::to_string(getpid());
  ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);
  {
    std::ifstream in(wide_path_, std::ios::binary);
    std::ofstream a(dir + "/alpha.limbo", std::ios::binary);
    a << in.rdbuf();
  }
  {
    std::ifstream in(narrow_path_, std::ios::binary);
    std::ofstream b(dir + "/beta.limbo", std::ios::binary);
    b << in.rdbuf();
  }
  // Non-bundle files are ignored, not errors.
  { std::ofstream skip(dir + "/notes.txt"); skip << "skip me\n"; }

  Registry registry;
  ASSERT_TRUE(registry.AddDirectory(dir).ok());
  EXPECT_EQ(registry.NumModels(), 2u);
  EXPECT_EQ(registry.DefaultName(), "alpha");  // lexicographic first
  EXPECT_NE(registry.Lookup("beta"), nullptr);

  Registry empty;
  const std::string empty_dir = dir + "/nothing_here";
  ASSERT_EQ(::mkdir(empty_dir.c_str(), 0755), 0);
  EXPECT_FALSE(empty.AddDirectory(empty_dir).ok());

  ::unlink((dir + "/alpha.limbo").c_str());
  ::unlink((dir + "/beta.limbo").c_str());
  ::unlink((dir + "/notes.txt").c_str());
  ::rmdir(empty_dir.c_str());
  ::rmdir(dir.c_str());
}

TEST_F(RegistryTest, HandleLineRoutesByModelField) {
  Registry registry;
  ASSERT_TRUE(registry.AddModel("wide", wide_path_).ok());
  ASSERT_TRUE(registry.AddModel("narrow", narrow_path_).ok());
  core::LossKernel kernel;

  const JsonValue wide_info = ParseResponse(
      registry.HandleLine("{\"op\":\"info\",\"model\":\"wide\"}", &kernel));
  ASSERT_TRUE(ResponseOk(wide_info));
  EXPECT_EQ(NumberField(wide_info, "clusters"), 3.0);

  const JsonValue narrow_info = ParseResponse(registry.HandleLine(
      "{\"op\":\"info\",\"model\":\"narrow\"}", &kernel));
  ASSERT_TRUE(ResponseOk(narrow_info));
  EXPECT_EQ(NumberField(narrow_info, "clusters"), 2.0);

  // No "model" field -> the default (first added) answers.
  const JsonValue default_info =
      ParseResponse(registry.HandleLine("{\"op\":\"info\"}", &kernel));
  ASSERT_TRUE(ResponseOk(default_info));
  EXPECT_EQ(NumberField(default_info, "clusters"), 3.0);
}

TEST_F(RegistryTest, UnknownModelIsNotFound) {
  Registry registry;
  ASSERT_TRUE(registry.AddModel("wide", wide_path_).ok());
  core::LossKernel kernel;
  const JsonValue response = ParseResponse(registry.HandleLine(
      "{\"op\":\"info\",\"model\":\"missing\"}", &kernel));
  EXPECT_FALSE(ResponseOk(response));
  EXPECT_EQ(ErrorCode(response), "NotFound");
  const JsonValue* error = response.Find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_NE(error->str.find("missing"), std::string::npos);
}

TEST_F(RegistryTest, NonStringModelFieldIsInvalid) {
  Registry registry;
  ASSERT_TRUE(registry.AddModel("wide", wide_path_).ok());
  core::LossKernel kernel;
  const JsonValue response = ParseResponse(
      registry.HandleLine("{\"op\":\"info\",\"model\":7}", &kernel));
  EXPECT_FALSE(ResponseOk(response));
  EXPECT_EQ(ErrorCode(response), "InvalidArgument");
}

TEST_F(RegistryTest, ModelsOpReportsVersionsAndQueryCounts) {
  Registry registry;
  ASSERT_TRUE(registry.AddModel("wide", wide_path_).ok());
  ASSERT_TRUE(registry.AddModel("narrow", narrow_path_).ok());
  core::LossKernel kernel;
  registry.HandleLine("{\"op\":\"info\",\"model\":\"narrow\"}", &kernel);
  registry.HandleLine("{\"op\":\"info\",\"model\":\"narrow\"}", &kernel);
  registry.HandleLine("{\"op\":\"info\"}", &kernel);  // default = wide

  const std::vector<ModelInfo> models = registry.ListModels();
  ASSERT_EQ(models.size(), 2u);
  EXPECT_EQ(models[0].name, "wide");
  EXPECT_EQ(models[0].version, 1u);
  EXPECT_EQ(models[0].queries, 1u);
  EXPECT_TRUE(models[0].is_default);
  EXPECT_EQ(models[1].name, "narrow");
  EXPECT_EQ(models[1].queries, 2u);
  EXPECT_FALSE(models[1].is_default);

  const JsonValue response =
      ParseResponse(registry.HandleLine("{\"op\":\"models\"}", &kernel));
  ASSERT_TRUE(ResponseOk(response));
  const JsonValue* list = response.Find("models");
  ASSERT_NE(list, nullptr);
  ASSERT_EQ(list->kind, JsonValue::Kind::kArray);
  ASSERT_EQ(list->array.size(), 2u);
  const JsonValue* default_name = response.Find("default");
  ASSERT_NE(default_name, nullptr);
  EXPECT_EQ(default_name->str, "wide");
}

TEST_F(RegistryTest, ReloadBumpsVersionAndServesNewBundle) {
  Registry registry;
  ASSERT_TRUE(registry.AddModel("m", wide_path_).ok());
  core::LossKernel kernel;
  EXPECT_EQ(NumberField(
                ParseResponse(registry.HandleLine("{\"op\":\"info\"}",
                                                  &kernel)),
                "clusters"),
            3.0);

  // Replace the bundle on disk with the 2-cluster fit, then hot reload:
  // the same name must now answer from the new bundle.
  {
    std::ifstream in(narrow_path_, std::ios::binary);
    std::ofstream out(wide_path_, std::ios::binary | std::ios::trunc);
    out << in.rdbuf();
  }
  const JsonValue reload =
      ParseResponse(registry.HandleLine("{\"op\":\"reload\"}", &kernel));
  ASSERT_TRUE(ResponseOk(reload)) << "reload failed";
  EXPECT_EQ(registry.ListModels()[0].version, 2u);
  EXPECT_EQ(NumberField(
                ParseResponse(registry.HandleLine("{\"op\":\"info\"}",
                                                  &kernel)),
                "clusters"),
            2.0);
}

// The refit -> hot-reload loop: a refitted child written over the
// registered path swaps in on reload, and the "models" op reports the
// new lineage (generation, rows absorbed, drift) alongside the bumped
// version and checksum.
TEST_F(RegistryTest, ReloadPicksUpRefittedChildAndReportsLineage) {
  Registry registry;
  ASSERT_TRUE(registry.AddModel("m", wide_path_).ok());
  core::LossKernel kernel;

  // Generation 0: refit-capable, no lineage.
  JsonValue models =
      ParseResponse(registry.HandleLine("{\"op\":\"models\"}", &kernel));
  ASSERT_TRUE(ResponseOk(models));
  {
    const JsonValue& entry = models.Find("models")->array[0];
    EXPECT_TRUE(entry.Find("refit_capable")->boolean);
    EXPECT_EQ(entry.Find("lineage")->kind, JsonValue::Kind::kNull);
    EXPECT_EQ(entry.Find("checksum")->str.size(), 16u);
    EXPECT_EQ(entry.Find("rows")->integer, 12u);
  }

  // Refit the bundle on disk (in place, as `limbo-tool refit` would).
  auto parent = model::Load(wide_path_);
  ASSERT_TRUE(parent.ok());
  auto source = relation::CsvStringSource::Open(
      "City,State,Zip,Name\nBoston,MA,02134,alice\nDenver,CO,80201,bob\n");
  ASSERT_TRUE(source.ok());
  auto refit = model::RefitModel(*parent, *source);
  ASSERT_TRUE(refit.ok()) << refit.status().ToString();
  ASSERT_NE(refit->drift_class, model::DriftClass::kSevere);
  ASSERT_TRUE(model::Save(refit->bundle, wide_path_).ok());

  const JsonValue reload =
      ParseResponse(registry.HandleLine("{\"op\":\"reload\"}", &kernel));
  ASSERT_TRUE(ResponseOk(reload));
  models =
      ParseResponse(registry.HandleLine("{\"op\":\"models\"}", &kernel));
  ASSERT_TRUE(ResponseOk(models));
  const JsonValue& entry = models.Find("models")->array[0];
  EXPECT_EQ(entry.Find("version")->integer, 2u);
  EXPECT_EQ(entry.Find("rows")->integer, 14u);
  const JsonValue* lineage = entry.Find("lineage");
  ASSERT_EQ(lineage->kind, JsonValue::Kind::kObject);
  EXPECT_EQ(lineage->Find("generation")->integer, 1u);
  EXPECT_EQ(lineage->Find("base_rows")->integer, 12u);
  EXPECT_EQ(lineage->Find("rows_absorbed")->integer, 2u);
}

TEST_F(RegistryTest, FailedReloadKeepsOldEngineServing) {
  Registry registry;
  ASSERT_TRUE(registry.AddModel("m", wide_path_).ok());
  const std::shared_ptr<const Engine> before = registry.Lookup("m");
  ASSERT_NE(before, nullptr);

  // Corrupt the on-disk bundle: the checksum check must reject it.
  {
    std::ofstream out(wide_path_, std::ios::binary | std::ios::trunc);
    out << "not a limbo bundle";
  }
  const util::Status status = registry.Reload("m");
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("old model kept"), std::string::npos)
      << status.ToString();

  // Old engine still serving, version unchanged.
  EXPECT_EQ(registry.Lookup("m"), before);
  EXPECT_EQ(registry.ListModels()[0].version, 1u);
  core::LossKernel kernel;
  const JsonValue info =
      ParseResponse(registry.HandleLine("{\"op\":\"info\"}", &kernel));
  ASSERT_TRUE(ResponseOk(info));
  EXPECT_EQ(NumberField(info, "clusters"), 3.0);

  // The failed attempt is visible through the admin protocol too.
  const JsonValue reload =
      ParseResponse(registry.HandleLine("{\"op\":\"reload\"}", &kernel));
  EXPECT_FALSE(ResponseOk(reload));
  EXPECT_EQ(ErrorCode(reload), "FailedPrecondition");
}

// The serving-layer batching contract: a heterogeneous batch — queries
// routed to two models, admin ops, protocol errors — answered through
// one HandleBatch call is byte-identical to the same lines answered one
// HandleLine at a time, in order.
TEST_F(RegistryTest, HandleBatchMatchesHandleLine) {
  const std::vector<std::string> lines = {
      "{\"op\":\"assign\",\"model\":\"wide\","
      "\"row\":[\"Boston\",\"MA\",\"02134\",\"alice\"]}",
      "{\"op\":\"assign\",\"model\":\"narrow\","
      "\"row\":[\"Denver\",\"CO\",\"80201\",\"bob\"]}",
      "{\"op\":\"duplicates\",\"row\":[\"Boston\",\"MA\",\"02134\","
      "\"alice\"]}",
      "{\"op\":\"assign\",\"model\":\"wide\","
      "\"row\":[\"Miami\",\"FL\",\"33101\",\"erin\"]}",
      "not json at all",
      "[1,2,3]",
      "{\"op\":7}",
      "{\"op\":\"info\",\"model\":\"missing\"}",
      "{\"op\":\"models\"}",
      "{\"op\":\"info\",\"model\":\"narrow\"}",
      "{\"op\":\"assign\",\"row\":[\"x\",\"y\",\"z\",\"w\"]}",
  };

  Registry by_line;
  ASSERT_TRUE(by_line.AddModel("wide", wide_path_).ok());
  ASSERT_TRUE(by_line.AddModel("narrow", narrow_path_).ok());
  Registry by_batch;
  ASSERT_TRUE(by_batch.AddModel("wide", wide_path_).ok());
  ASSERT_TRUE(by_batch.AddModel("narrow", narrow_path_).ok());

  core::LossKernel kernel;
  std::vector<std::string> want;
  for (const std::string& line : lines) {
    want.push_back(by_line.HandleLine(line, &kernel));
  }
  const std::vector<std::string> got = by_batch.HandleBatch(lines, &kernel);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << lines[i];
  }
}

TEST_F(RegistryTest, CacheServesRepeatsByteIdenticallyAndCounts) {
  Registry registry({}, /*cache_entries=*/64);
  ASSERT_TRUE(registry.AddModel("wide", wide_path_).ok());
  core::LossKernel kernel;
  const std::string query =
      "{\"op\":\"assign\",\"row\":[\"Boston\",\"MA\",\"02134\",\"alice\"]}";
  const std::string first = registry.HandleLine(query, &kernel);
  const std::string second = registry.HandleLine(query, &kernel);
  EXPECT_EQ(first, second);
  EXPECT_EQ(registry.CacheHits(), 1u);
  EXPECT_EQ(registry.CacheMisses(), 1u);
  // The batched path probes the same cache.
  const std::vector<std::string> lines = {query};
  const std::vector<std::string> batched =
      registry.HandleBatch(lines, &kernel);
  ASSERT_EQ(batched.size(), 1u);
  EXPECT_EQ(batched[0], first);
  EXPECT_EQ(registry.CacheHits(), 2u);
}

// Key canonicalization: whitespace and object-key order don't change the
// request, so they must not miss the cache.
TEST_F(RegistryTest, CacheKeyIgnoresWhitespaceAndKeyOrder) {
  Registry registry({}, /*cache_entries=*/64);
  ASSERT_TRUE(registry.AddModel("wide", wide_path_).ok());
  core::LossKernel kernel;
  const std::string compact =
      "{\"op\":\"assign\",\"row\":[\"Boston\",\"MA\",\"02134\",\"alice\"]}";
  const std::string reordered =
      "{ \"row\": [\"Boston\", \"MA\", \"02134\", \"alice\"],\n"
      "  \"op\": \"assign\" }";
  const std::string first = registry.HandleLine(compact, &kernel);
  const std::string second = registry.HandleLine(reordered, &kernel);
  EXPECT_EQ(first, second);
  EXPECT_EQ(registry.CacheHits(), 1u);
  EXPECT_EQ(registry.CacheMisses(), 1u);
}

// The invalidation guarantee: the cache key carries the model version,
// so a hot reload atomically orphans every entry cached against the old
// engine — a stale response can never be served.
TEST_F(RegistryTest, ReloadInvalidatesCachedResponses) {
  Registry registry({}, /*cache_entries=*/64);
  ASSERT_TRUE(registry.AddModel("m", wide_path_).ok());
  core::LossKernel kernel;
  const std::string query = "{\"op\":\"info\"}";
  EXPECT_EQ(NumberField(ParseResponse(registry.HandleLine(query, &kernel)),
                        "clusters"),
            3.0);
  EXPECT_EQ(NumberField(ParseResponse(registry.HandleLine(query, &kernel)),
                        "clusters"),
            3.0);
  EXPECT_EQ(registry.CacheHits(), 1u);

  // Swap the bundle on disk for the 2-cluster fit and hot reload: the
  // same query must answer from the new engine, not the cache.
  {
    std::ifstream in(narrow_path_, std::ios::binary);
    std::ofstream out(wide_path_, std::ios::binary | std::ios::trunc);
    out << in.rdbuf();
  }
  ASSERT_TRUE(ResponseOk(
      ParseResponse(registry.HandleLine("{\"op\":\"reload\"}", &kernel))));
  EXPECT_EQ(NumberField(ParseResponse(registry.HandleLine(query, &kernel)),
                        "clusters"),
            2.0);
  // The post-reload lookup missed (new version => new key) and repeats
  // now hit the fresh entry.
  EXPECT_EQ(registry.CacheMisses(), 2u);
  EXPECT_EQ(NumberField(ParseResponse(registry.HandleLine(query, &kernel)),
                        "clusters"),
            2.0);
  EXPECT_EQ(registry.CacheHits(), 2u);
}

TEST_F(RegistryTest, CacheEvictsLeastRecentlyUsed) {
  Registry registry({}, /*cache_entries=*/2);
  ASSERT_TRUE(registry.AddModel("wide", wide_path_).ok());
  core::LossKernel kernel;
  const std::string a =
      "{\"op\":\"assign\",\"row\":[\"Boston\",\"MA\",\"02134\",\"alice\"]}";
  const std::string b =
      "{\"op\":\"assign\",\"row\":[\"Denver\",\"CO\",\"80201\",\"bob\"]}";
  const std::string c =
      "{\"op\":\"assign\",\"row\":[\"Miami\",\"FL\",\"33101\",\"dave\"]}";
  registry.HandleLine(a, &kernel);  // miss; cache = [a]
  registry.HandleLine(b, &kernel);  // miss; cache = [b, a]
  registry.HandleLine(a, &kernel);  // hit;  cache = [a, b]
  registry.HandleLine(c, &kernel);  // miss; evicts b -> [c, a]
  EXPECT_EQ(registry.CacheHits(), 1u);
  registry.HandleLine(b, &kernel);  // miss; evicts a -> [b, c]
  EXPECT_EQ(registry.CacheMisses(), 4u);
  registry.HandleLine(a, &kernel);  // miss: a fell out above
  EXPECT_EQ(registry.CacheMisses(), 5u);
}

TEST_F(RegistryTest, ReloadOfUnknownModelFails) {
  Registry registry;
  ASSERT_TRUE(registry.AddModel("m", wide_path_).ok());
  EXPECT_FALSE(registry.Reload("missing").ok());
  core::LossKernel kernel;
  const JsonValue response = ParseResponse(registry.HandleLine(
      "{\"op\":\"reload\",\"model\":\"missing\"}", &kernel));
  EXPECT_FALSE(ResponseOk(response));
  EXPECT_EQ(ErrorCode(response), "NotFound");
}

// ---------------------------------------------------------------------------
// Golden responses: the exact bytes of every op and every error shape on
// the DB2 join sample, recorded while single lines and batches still had
// separate dispatch code. They pin the wire format itself, so a change
// to the one remaining path cannot drift from what clients already parse.

/// The DB2 sample fitted single-lane, once with mined schemes ("db2",
/// k=5) and once without ("plain", k=3), saved once for the suite.
class GoldenTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto rel = datagen::Db2Sample::JoinedRelation();
    ASSERT_TRUE(rel.ok());
    model::FitOptions options;
    options.threads = 1;
    options.k = 5;
    options.mine_schemes = true;
    db2_path_ = FitAndSave(*rel, options, "db2");
    options.k = 3;
    options.mine_schemes = false;
    plain_path_ = FitAndSave(*rel, options, "plain");
  }

  static void TearDownTestSuite() {
    ::unlink(db2_path_.c_str());
    ::unlink(plain_path_.c_str());
  }

  static std::string FitAndSave(const relation::Relation& rel,
                                const model::FitOptions& options,
                                const std::string& tag) {
    auto bundle = model::FitModel(rel, options);
    EXPECT_TRUE(bundle.ok()) << bundle.status().ToString();
    const std::string path = testing::TempDir() + "golden_" + tag + "_" +
                             std::to_string(getpid()) + ".limbo";
    EXPECT_TRUE(model::Save(*bundle, path).ok());
    return path;
  }

  /// A registry serving "db2" (the default) and "plain".
  static std::unique_ptr<Registry> MakeRegistry(EngineOptions options = {}) {
    auto registry = std::make_unique<Registry>(options);
    EXPECT_TRUE(registry->AddModel("db2", db2_path_).ok());
    EXPECT_TRUE(registry->AddModel("plain", plain_path_).ok());
    return registry;
  }

  /// The bundle paths vary per run; goldens spell them <db2> / <plain>.
  static std::string Normalize(std::string response) {
    for (const auto& [path, name] :
         {std::pair{db2_path_, "<db2>"}, std::pair{plain_path_, "<plain>"}}) {
      for (size_t at = response.find(path); at != std::string::npos;
           at = response.find(path, at)) {
        response.replace(at, path.size(), name);
      }
    }
    return response;
  }

  /// Answers `lines` one HandleLine at a time and as one HandleBatch, each
  /// on a fresh registry, and checks both against `want` byte for byte.
  static void ExpectGoldens(const std::vector<std::string>& lines,
                            const std::vector<std::string>& want,
                            EngineOptions options = {}) {
    ASSERT_EQ(lines.size(), want.size());
    core::LossKernel kernel;
    std::unique_ptr<Registry> by_line = MakeRegistry(options);
    for (size_t i = 0; i < lines.size(); ++i) {
      EXPECT_EQ(Normalize(by_line->HandleLine(lines[i], &kernel)), want[i])
          << lines[i];
    }
    const std::vector<std::string> batch =
        MakeRegistry(options)->HandleBatch(lines, &kernel);
    ASSERT_EQ(batch.size(), want.size());
    for (size_t i = 0; i < lines.size(); ++i) {
      EXPECT_EQ(Normalize(batch[i]), want[i]) << lines[i];
    }
  }

  static std::string db2_path_;
  static std::string plain_path_;
};

std::string GoldenTest::db2_path_;
std::string GoldenTest::plain_path_;

// Row 0 of the DB2 join, as a JSON string array and as one CSV record.
#define DB2_ROW0_FIELDS                                                     \
  R"("E001","Toni","Lucchesi","555-1000","1981","CLERK","13","F","1956",)" \
  R"("D01","SPIFFY_COMPUTER","M001","A01","P001","PROJECT_A1","E001",)"    \
  R"("1982-01-01","1986-06-01","P001")"
#define DB2_ROW0_CSV                                                      \
  "E001,Toni,Lucchesi,555-1000,1981,CLERK,13,F,1956,D01,SPIFFY_COMPUTER," \
  "M001,A01,P001,PROJECT_A1,E001,1982-01-01,1986-06-01,P001"

const std::vector<std::string>& OpLines() {
  static const std::vector<std::string> lines = {
      R"({"op":"assign","row":[)" DB2_ROW0_FIELDS "]}",
      R"({"op":"assign","csv":")" DB2_ROW0_CSV R"("})",
      R"({"op":"assign","model":"plain","row":[)" DB2_ROW0_FIELDS "]}",
      R"({"op":"assign","row":["E001","Toni","Lucchesi","555-1000","1981",)"
      R"("CLERK","13","F","1956","D01","SPIFFY_COMPUTER","M001","A01",)"
      R"("P999","PROJECT_Z","E001","1982-01-01","1986-06-01","P001"]})",
      R"({"op":"duplicates","row":[)" DB2_ROW0_FIELDS "]}",
      R"({"op":"duplicates","model":"plain","csv":")" DB2_ROW0_CSV R"("})",
      R"({"op":"valuegroup","attr":"DeptNo","value":"D01"})",
      R"({"op":"valuegroup","attr":"Sex","value":"F"})",
      R"({"op":"assign","csv":"E015,Jo,Stern,555-1098,1980,SALESREP,16,M,)"
      R"(1953,D02,PLANNING,M002,A01,P006,PROJECT_B1,E016,1983-02-01,)"
      R"(1984-12-15,P006"})",
      R"({"op":"duplicates","row":["E027","Alex","Geyer","555-1182","1982",)"
      R"("ANALYST","12","M","1952","D06","OPERATIONS","M006","A02","P015",)"
      R"("PROJECT_F2","E028","1984-06-15","1984-05-01","P014"]})",
      R"({"op":"attrs"})",
      R"({"op":"fds","limit":3})",
      R"({"op":"fds","limit":0})",
      R"({"op":"schemes","limit":2})",
      R"({"op":"info"})",
      R"({"op":"info","model":"plain"})",
      R"({"op":"models"})",
      R"({"op":"reload","model":"plain"})",
      R"({"op":"models"})",
  };
  return lines;
}

const std::vector<std::string>& ErrorLines() {
  static const std::vector<std::string> lines = {
      "not json at all",
      R"({"op":"info")",
      "[1,2,3]",
      "42",
      R"({"model":"db2"})",
      R"({"op":7})",
      R"({"op":"frobnicate"})",
      R"({"op":"info","model":7})",
      R"({"op":"info","model":"missing"})",
      R"({"op":"reload","model":"missing"})",
      R"({"op":"assign"})",
      R"({"op":"assign","row":[)" DB2_ROW0_FIELDS R"(],"csv":"a,b"})",
      R"({"op":"assign","row":"E001"})",
      R"({"op":"duplicates","row":["E001",7]})",
      R"({"op":"assign","csv":7})",
      R"({"op":"assign","csv":"a,b\nc,d\n"})",
      R"({"op":"assign","csv":"\"open"})",
      R"({"op":"assign","row":["E001","Toni"]})",
      R"({"op":"duplicates","row":["z","z","z","z","z","z","z","z","z","z",)"
      R"("z","z","z","z","z","z","z","z","z"]})",
      R"({"op":"valuegroup","attr":"DeptNo"})",
      R"({"op":"valuegroup","attr":"Nope","value":"D01"})",
      R"({"op":"valuegroup","attr":"DeptNo","value":"D99"})",
      R"({"op":"schemes","model":"plain"})",
      R"({"op":"fds","limit":-1})",
      R"({"op":"fds","limit":2.5})",
      R"({"op":"schemes","limit":-3})",
      R"({"op":"schemes","limit":1.5})",
      R"({"op":"fds","limit":"3"})",
  };
  return lines;
}

const std::vector<std::string>& StrictLines() {
  static const std::vector<std::string> lines = {
      R"({"op":"assign","row":[)" DB2_ROW0_FIELDS "]}",
      R"({"op":"assign","row":["E001","Toni","Lucchesi","555-1000","1981",)"
      R"("CLERK","13","F","1956","D01","SPIFFY_COMPUTER","M001","A01",)"
      R"("P999","PROJECT_Z","E001","1982-01-01","1986-06-01","P001"]})",
      R"({"op":"duplicates","csv":"E001,Toni,Lucchesi,555-1000,1981,CLERK,)"
      R"(13,F,1956,D01,SPIFFY_COMPUTER,M001,A01,P001,PROJECT_A1,E001,)"
      R"(1982-01-01,1986-06-01,P404"})",
      R"({"op":"info"})",
  };
  return lines;
}

const std::vector<std::string>& OpResponses() {
  static const std::vector<std::string> responses = {
      R"json({"ok":true,"cluster":0,"loss":0.012931239397050119,"oov":0})json",
      R"json({"ok":true,"cluster":0,"loss":0.012931239397050119,"oov":0})json",
      R"json({"ok":true,"cluster":0,"loss":0.016250233892590542,"oov":0})json",
      R"json({"ok":true,"cluster":0,"loss":0.013245409662014271,"oov":2})json",
      R"json({"ok":true,"duplicate":false,"cluster":0,"loss":0.0129312393)json"
      R"json(97050119,"limit":0.0059052371432644349,"heavy":true,"oov":0})json",
      R"json({"ok":true,"duplicate":false,"cluster":0,"loss":0.0162502338)json"
      R"json(92590542,"limit":0.0059052371432644349,"heavy":true,"oov":0})json",
      R"json({"ok":true,"value":"DeptNo=D01","support":50,"group":87,"is_)json"
      R"json(duplicate":true,"members":["DeptNo=D01","DeptName=SPIFFY_COM)json"
      R"json(PUTER","MgrNo=M001","MajorProjNo=P001"]})json",
      R"json({"ok":true,"value":"Sex=F","support":52,"group":93,"is_dupli)json"
      R"json(cate":false,"members":["Sex=F"]})json",
      R"json({"ok":true,"cluster":4,"loss":0.0093377004882469628,"oov":0})json",
      R"json({"ok":true,"duplicate":false,"cluster":2,"loss":0.0177901658)json"
      R"json(31606697,"limit":0.0059052371432644349,"heavy":true,"oov":0})json",
      R"json({"ok":true,"attributes":["EmpNo","FirstName","LastName","Pho)json"
      R"json(neNo","HireYear","Job","EduLevel","Sex","BirthYear","DeptNo")json"
      R"json(,"DeptName","MgrNo","AdminDepNo","ProjNo","ProjName","RespEm)json"
      R"json(pNo","StartDate","EndDate","MajorProjNo"],"has_grouping":tru)json"
      R"json(e,"grouping":{"attributes":["EmpNo","FirstName","LastName",")json"
      R"json(PhoneNo","HireYear","Job","EduLevel","BirthYear","DeptNo","D)json"
      R"json(eptName","MgrNo","ProjNo","ProjName","RespEmpNo","StartDate")json"
      R"json(,"EndDate","MajorProjNo"],"max_merge_loss":0.920590324947173)json"
      R"json(74,"merges":[{"left":0,"right":3,"merged":17,"loss":0.0},{"l)json"
      R"json(eft":8,"right":9,"merged":18,"loss":0.0},{"left":10,"right":)json"
      R"json(16,"merged":19,"loss":0.0},{"left":11,"right":12,"merged":20)json"
      R"json(,"loss":0.0},{"left":18,"right":19,"merged":21,"loss":0.0},{)json"
      R"json("left":6,"right":7,"merged":22,"loss":0.010447722291700766},)json"
      R"json({"left":4,"right":5,"merged":23,"loss":0.029217704449161656})json"
      R"json(,{"left":13,"right":15,"merged":24,"loss":0.0465665414121598)json"
      R"json(09},{"left":1,"right":2,"merged":25,"loss":0.074588403578481)json"
      R"json(663},{"left":14,"right":24,"merged":26,"loss":0.100698934445)json"
      R"json(68552},{"left":23,"right":25,"merged":27,"loss":0.1841162496)json"
      R"json(0862932},{"left":20,"right":26,"merged":28,"loss":0.23204660)json"
      R"json(07493604},{"left":17,"right":22,"merged":29,"loss":0.2352941)json"
      R"json(1764705888},{"left":21,"right":28,"merged":30,"loss":0.35364)json"
      R"json(709113550313},{"left":27,"right":29,"merged":31,"loss":0.470)json"
      R"json(58823529411764},{"left":30,"right":31,"merged":32,"loss":0.9)json"
      R"json(2059032494717374}],"clusters":[["EmpNo"],["FirstName"],["Las)json"
      R"json(tName"],["PhoneNo"],["HireYear"],["Job"],["EduLevel"],["Birt)json"
      R"json(hYear"],["DeptNo"],["DeptName"],["MgrNo"],["ProjNo"],["ProjN)json"
      R"json(ame"],["RespEmpNo"],["StartDate"],["EndDate"],["MajorProjNo")json"
      R"json(],["EmpNo","PhoneNo"],["DeptNo","DeptName"],["MgrNo","MajorP)json"
      R"json(rojNo"],["ProjNo","ProjName"],["DeptNo","DeptName","MgrNo",")json"
      R"json(MajorProjNo"],["EduLevel","BirthYear"],["HireYear","Job"],[")json"
      R"json(RespEmpNo","EndDate"],["FirstName","LastName"],["RespEmpNo",)json"
      R"json("StartDate","EndDate"],["FirstName","LastName","HireYear","J)json"
      R"json(ob"],["ProjNo","ProjName","RespEmpNo","StartDate","EndDate"])json"
      R"json(,["EmpNo","PhoneNo","EduLevel","BirthYear"],["DeptNo","DeptN)json"
      R"json(ame","MgrNo","ProjNo","ProjName","RespEmpNo","StartDate","En)json"
      R"json(dDate","MajorProjNo"],["EmpNo","FirstName","LastName","Phone)json"
      R"json(No","HireYear","Job","EduLevel","BirthYear"],["EmpNo","First)json"
      R"json(Name","LastName","PhoneNo","HireYear","Job","EduLevel","Birt)json"
      R"json(hYear","DeptNo","DeptName","MgrNo","ProjNo","ProjName","Resp)json"
      R"json(EmpNo","StartDate","EndDate","MajorProjNo"]]}})json",
      R"json({"ok":true,"total_mined":718,"ranked":66,"fds":[{"lhs":["Maj)json"
      R"json(orProjNo"],"rhs":["DeptNo","DeptName","MgrNo"],"rank":0.0,"a)json"
      R"json(nchored":true},{"lhs":["EmpNo"],"rhs":["PhoneNo"],"rank":0.0)json"
      R"json(,"anchored":true},{"lhs":["PhoneNo"],"rhs":["EmpNo"],"rank":)json"
      R"json(0.0,"anchored":true}]})json",
      R"json({"ok":true,"total_mined":718,"ranked":66,"fds":[]})json",
      R"json({"ok":true,"epsilon":0.050000000000000003,"max_separator":2,)json"
      R"json("total_entropy":6.4918530963296748,"count":16,"schemes":[{"s)json"
      R"json(eparator":["EmpNo"],"bags":[["EmpNo","FirstName"],["EmpNo",")json"
      R"json(LastName"],["EmpNo","PhoneNo"],["EmpNo","HireYear"],["EmpNo")json"
      R"json(,"Job"],["EmpNo","EduLevel"],["EmpNo","Sex"],["EmpNo","Birth)json"
      R"json(Year"],["EmpNo","DeptNo"],["EmpNo","DeptName"],["EmpNo","Mgr)json"
      R"json(No"],["EmpNo","AdminDepNo"],["EmpNo","ProjNo","ProjName","Re)json"
      R"json(spEmpNo","StartDate","EndDate"],["EmpNo","MajorProjNo"]],"j_)json"
      R"json(measure":0.0},{"separator":["EmpNo","FirstName"],"bags":[["E)json"
      R"json(mpNo","FirstName","LastName"],["EmpNo","FirstName","PhoneNo")json"
      R"json(],["EmpNo","FirstName","HireYear"],["EmpNo","FirstName","Job)json"
      R"json("],["EmpNo","FirstName","EduLevel"],["EmpNo","FirstName","Se)json"
      R"json(x"],["EmpNo","FirstName","BirthYear"],["EmpNo","FirstName",")json"
      R"json(DeptNo"],["EmpNo","FirstName","DeptName"],["EmpNo","FirstNam)json"
      R"json(e","MgrNo"],["EmpNo","FirstName","AdminDepNo"],["EmpNo","Fir)json"
      R"json(stName","ProjNo","ProjName","RespEmpNo","StartDate","EndDate)json"
      R"json("],["EmpNo","FirstName","MajorProjNo"]],"j_measure":0.0}]})json",
      R"json({"ok":true,"format_version":3,"checksum":"ff7c9ed39949630e",)json"
      R"json("rows":90,"attributes":19,"values":197,"clusters":5,"phi_t":)json"
      R"json(0.10000000000000001,"phi_v":0.0,"psi":0.5,"mutual_informatio)json"
      R"json(n":2.6573567144689956,"threshold":0.0029526185716322174,"ass)json"
      R"json(ociation_margin":2.0,"value_groups":103,"duplicate_value_gro)json"
      R"json(ups":55,"has_grouping":true,"fds_mined":718,"ranked_fds":66,)json"
      R"json("has_schemes":true,"schemes":16,"oov_policy":"drop","refit_c)json"
      R"json(apable":true,"lineage":null})json",
      R"json({"ok":true,"format_version":3,"checksum":"4e0b1e12613287fa",)json"
      R"json("rows":90,"attributes":19,"values":197,"clusters":3,"phi_t":)json"
      R"json(0.10000000000000001,"phi_v":0.0,"psi":0.5,"mutual_informatio)json"
      R"json(n":2.6573567144689956,"threshold":0.0029526185716322174,"ass)json"
      R"json(ociation_margin":2.0,"value_groups":103,"duplicate_value_gro)json"
      R"json(ups":55,"has_grouping":true,"fds_mined":718,"ranked_fds":66,)json"
      R"json("has_schemes":false,"schemes":0,"oov_policy":"drop","refit_c)json"
      R"json(apable":true,"lineage":null})json",
      R"json({"ok":true,"default":"db2","models":[{"model":"db2","path":")json"
      R"json(<db2>","version":1,"queries":13,"is_default":true,"rows":90,)json"
      R"json("checksum":"ff7c9ed39949630e","refit_capable":true,"lineage")json"
      R"json(:null},{"model":"plain","path":"<plain>","version":1,"querie)json"
      R"json(s":3,"is_default":false,"rows":90,"checksum":"4e0b1e12613287)json"
      R"json(fa","refit_capable":true,"lineage":null}]})json",
      R"json({"ok":true,"reloaded":[{"model":"plain","version":2}]})json",
      R"json({"ok":true,"default":"db2","models":[{"model":"db2","path":")json"
      R"json(<db2>","version":1,"queries":13,"is_default":true,"rows":90,)json"
      R"json("checksum":"ff7c9ed39949630e","refit_capable":true,"lineage")json"
      R"json(:null},{"model":"plain","path":"<plain>","version":2,"querie)json"
      R"json(s":3,"is_default":false,"rows":90,"checksum":"4e0b1e12613287)json"
      R"json(fa","refit_capable":true,"lineage":null}]})json",
  };
  return responses;
}

const std::vector<std::string>& ErrorResponses() {
  static const std::vector<std::string> responses = {
      R"json({"ok":false,"code":"InvalidArgument","error":"JSON parse err)json"
      R"json(or at offset 0: bad keyword"})json",
      R"json({"ok":false,"code":"InvalidArgument","error":"JSON parse err)json"
      R"json(or at offset 12: expected ',' or '}' in object"})json",
      R"json({"ok":false,"code":"InvalidArgument","error":"query must be )json"
      R"json(a JSON object"})json",
      R"json({"ok":false,"code":"InvalidArgument","error":"query must be )json"
      R"json(a JSON object"})json",
      R"json({"ok":false,"code":"InvalidArgument","error":"query needs a )json"
      R"json(string field \"op\""})json",
      R"json({"ok":false,"code":"InvalidArgument","error":"query needs a )json"
      R"json(string field \"op\""})json",
      R"json({"ok":false,"code":"InvalidArgument","error":"unknown op \"f)json"
      R"json(robnicate\""})json",
      R"json({"ok":false,"code":"InvalidArgument","error":"\"model\" must)json"
      R"json( be a string"})json",
      R"json({"ok":false,"code":"NotFound","error":"unknown model \"missi)json"
      R"json(ng\""})json",
      R"json({"ok":false,"code":"NotFound","error":"unknown model \"missi)json"
      R"json(ng\""})json",
      R"json({"ok":false,"code":"InvalidArgument","error":"query needs ex)json"
      R"json(actly one of \"row\" (array of strings) or \"csv\" (raw reco)json"
      R"json(rd)"})json",
      R"json({"ok":false,"code":"InvalidArgument","error":"query needs ex)json"
      R"json(actly one of \"row\" (array of strings) or \"csv\" (raw reco)json"
      R"json(rd)"})json",
      R"json({"ok":false,"code":"InvalidArgument","error":"\"row\" must b)json"
      R"json(e an array"})json",
      R"json({"ok":false,"code":"InvalidArgument","error":"\"row\" elemen)json"
      R"json(ts must be strings"})json",
      R"json({"ok":false,"code":"InvalidArgument","error":"\"csv\" must b)json"
      R"json(e a string"})json",
      R"json({"ok":false,"code":"InvalidArgument","error":"\"csv\" must c)json"
      R"json(ontain exactly one record, got 2"})json",
      R"json({"ok":false,"code":"InvalidArgument","error":"unterminated q)json"
      R"json(uoted CSV field"})json",
      R"json({"ok":false,"code":"InvalidArgument","error":"row has 2 fiel)json"
      R"json(ds; schema has 19 attributes"})json",
      R"json({"ok":false,"code":"NotFound","error":"every value in the ro)json"
      R"json(w is unseen; nothing to assign"})json",
      R"json({"ok":false,"code":"InvalidArgument","error":"valuegroup nee)json"
      R"json(ds string fields \"attr\" and \"value\""})json",
      R"json({"ok":false,"code":"NotFound","error":"no attribute named No)json"
      R"json(pe"})json",
      R"json({"ok":false,"code":"NotFound","error":"value \"D99\" was nev)json"
      R"json(er seen under attribute \"DeptNo\""})json",
      R"json({"ok":false,"code":"no_schemes","error":"bundle has no mined)json"
      R"json(-schemes section; re-fit with --schemes"})json",
      R"json({"ok":false,"code":"InvalidArgument","error":"\"limit\" must)json"
      R"json( be a non-negative integer"})json",
      R"json({"ok":false,"code":"InvalidArgument","error":"\"limit\" must)json"
      R"json( be a non-negative integer"})json",
      R"json({"ok":false,"code":"InvalidArgument","error":"\"limit\" must)json"
      R"json( be a non-negative integer"})json",
      R"json({"ok":false,"code":"InvalidArgument","error":"\"limit\" must)json"
      R"json( be a non-negative integer"})json",
      R"json({"ok":false,"code":"InvalidArgument","error":"\"limit\" must)json"
      R"json( be a non-negative integer"})json",
  };
  return responses;
}

const std::vector<std::string>& StrictResponses() {
  static const std::vector<std::string> responses = {
      R"json({"ok":true,"cluster":0,"loss":0.012931239397050119,"oov":0})json",
      R"json({"ok":false,"code":"NotFound","error":"unseen value for attr)json"
      R"json(ibute \"ProjNo\": \"P999\""})json",
      R"json({"ok":false,"code":"NotFound","error":"unseen value for attr)json"
      R"json(ibute \"MajorProjNo\": \"P404\""})json",
      R"json({"ok":true,"format_version":3,"checksum":"ff7c9ed39949630e",)json"
      R"json("rows":90,"attributes":19,"values":197,"clusters":5,"phi_t":)json"
      R"json(0.10000000000000001,"phi_v":0.0,"psi":0.5,"mutual_informatio)json"
      R"json(n":2.6573567144689956,"threshold":0.0029526185716322174,"ass)json"
      R"json(ociation_margin":2.0,"value_groups":103,"duplicate_value_gro)json"
      R"json(ups":55,"has_grouping":true,"fds_mined":718,"ranked_fds":66,)json"
      R"json("has_schemes":true,"schemes":16,"oov_policy":"strict","refit)json"
      R"json(_capable":true,"lineage":null})json",
  };
  return responses;
}

TEST_F(GoldenTest, EveryOpAnswersItsRecordedBytes) {
  ExpectGoldens(OpLines(), OpResponses());
}

TEST_F(GoldenTest, EveryErrorShapeAnswersItsRecordedBytes) {
  ExpectGoldens(ErrorLines(), ErrorResponses());
}

TEST_F(GoldenTest, StrictOovAnswersItsRecordedBytes) {
  ExpectGoldens(StrictLines(), StrictResponses(),
                EngineOptions{OovPolicy::kStrict});
}

}  // namespace
}  // namespace limbo::serve
