#include "serve/registry.h"

#include <algorithm>
#include <filesystem>
#include <utility>

#include "obs/counters.h"
#include "serve/wire.h"
#include "util/json.h"

namespace limbo::serve {

namespace {

using util::JsonValue;

/// "dir/name.limbo" -> "name": the model name a directory scan or a
/// positional bundle argument registers.
std::string StemOf(const std::filesystem::path& path) {
  return path.stem().string();
}

}  // namespace

Registry::Registry(EngineOptions engine_options, size_t cache_entries)
    : engine_options_(engine_options),
      cache_(cache_entries > 0 ? std::make_unique<ResponseCache>(cache_entries)
                               : nullptr) {}

uint64_t Registry::CacheHits() const {
  return cache_ == nullptr ? 0 : cache_->hits();
}

uint64_t Registry::CacheMisses() const {
  return cache_ == nullptr ? 0 : cache_->misses();
}

util::Result<std::shared_ptr<const Engine>> Registry::LoadEngine(
    const std::string& path) const {
  LIMBO_ASSIGN_OR_RETURN(Engine engine,
                         Engine::Open(path, engine_options_));
  return std::shared_ptr<const Engine>(
      std::make_shared<Engine>(std::move(engine)));
}

Registry::Entry* Registry::FindEntryLocked(const std::string& name) const {
  const std::string& target = name.empty() ? default_name_ : name;
  for (const std::unique_ptr<Entry>& entry : entries_) {
    if (entry->name == target) return entry.get();
  }
  return nullptr;
}

util::Status Registry::AddModel(const std::string& name,
                                const std::string& path) {
  if (name.empty()) {
    return util::Status::InvalidArgument("model name must not be empty");
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (FindEntryLocked(name) != nullptr) {
      return util::Status::InvalidArgument("model \"" + name +
                                           "\" is already registered");
    }
  }
  // Load outside the lock: bundles can be large, and concurrent queries
  // against already-registered models must not stall on disk I/O.
  util::Result<std::shared_ptr<const Engine>> engine = LoadEngine(path);
  if (!engine.ok()) return engine.status();
  auto entry = std::make_unique<Entry>();
  entry->name = name;
  entry->path = path;
  entry->engine = std::move(*engine);
  entry->counter = &obs::GetCounter("serve.model." + name + ".queries");
  std::lock_guard<std::mutex> lock(mu_);
  if (FindEntryLocked(name) != nullptr) {
    return util::Status::InvalidArgument("model \"" + name +
                                         "\" is already registered");
  }
  if (entries_.empty()) default_name_ = name;
  entries_.push_back(std::move(entry));
  return util::Status::Ok();
}

util::Status Registry::AddDirectory(const std::string& dir) {
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) {
    return util::Status::IoError("cannot read model directory \"" + dir +
                                 "\": " + ec.message());
  }
  std::vector<std::filesystem::path> bundles;
  for (const std::filesystem::directory_entry& entry : it) {
    if (entry.is_regular_file(ec) && entry.path().extension() == ".limbo") {
      bundles.push_back(entry.path());
    }
  }
  if (bundles.empty()) {
    return util::Status::NotFound("no .limbo bundles in directory \"" + dir +
                                  "\"");
  }
  std::sort(bundles.begin(), bundles.end());
  for (const std::filesystem::path& bundle : bundles) {
    LIMBO_RETURN_IF_ERROR(AddModel(StemOf(bundle), bundle.string()));
  }
  return util::Status::Ok();
}

util::Status Registry::SetDefault(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (FindEntryLocked(name) == nullptr) {
    return util::Status::NotFound("unknown model \"" + name + "\"");
  }
  default_name_ = name;
  return util::Status::Ok();
}

size_t Registry::NumModels() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

std::string Registry::DefaultName() const {
  std::lock_guard<std::mutex> lock(mu_);
  return default_name_;
}

std::vector<ModelInfo> Registry::ListModels() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ModelInfo> models;
  models.reserve(entries_.size());
  for (const std::unique_ptr<Entry>& entry : entries_) {
    ModelInfo info;
    info.name = entry->name;
    info.path = entry->path;
    info.version = entry->version;
    info.queries = entry->queries.load(std::memory_order_relaxed);
    info.is_default = entry->name == default_name_;
    const model::ModelBundle& bundle = entry->engine->bundle();
    info.rows = bundle.num_rows;
    info.checksum = ChecksumHex(bundle.payload_checksum);
    info.refit_capable = bundle.has_phase1_tree;
    info.has_lineage = bundle.has_lineage;
    info.lineage = bundle.lineage;
    models.push_back(std::move(info));
  }
  return models;
}

std::shared_ptr<const Engine> Registry::Lookup(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  Entry* entry = FindEntryLocked(name);
  return entry == nullptr ? nullptr : entry->engine;
}

util::Status Registry::Reload(const std::string& name) {
  std::string path;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Entry* entry = FindEntryLocked(name);
    if (entry == nullptr) {
      return util::Status::NotFound("unknown model \"" + name + "\"");
    }
    path = entry->path;
  }
  // Blue/green: the full load + validation happens off to the side, so
  // in-flight queries never see a half-loaded model. Only a fully-built
  // engine is ever swapped in.
  util::Result<std::shared_ptr<const Engine>> fresh = LoadEngine(path);
  if (!fresh.ok()) {
    LIMBO_OBS_COUNT("serve.reload.errors", 1);
    return util::Status::FailedPrecondition(
        "reload of model \"" + name + "\" failed, old model kept: " +
        fresh.status().ToString());
  }
  std::lock_guard<std::mutex> lock(mu_);
  Entry* entry = FindEntryLocked(name);
  if (entry == nullptr) {
    return util::Status::NotFound("unknown model \"" + name + "\"");
  }
  // Old engine stays alive until the last in-flight query that grabbed
  // a snapshot drops its shared_ptr.
  entry->engine = std::move(*fresh);
  ++entry->version;
  LIMBO_OBS_COUNT("serve.reloads", 1);
  return util::Status::Ok();
}

util::Status Registry::ReloadAll() {
  std::vector<std::string> names;
  {
    std::lock_guard<std::mutex> lock(mu_);
    names.reserve(entries_.size());
    for (const std::unique_ptr<Entry>& entry : entries_) {
      names.push_back(entry->name);
    }
  }
  util::Status first_error = util::Status::Ok();
  for (const std::string& name : names) {
    util::Status s = Reload(name);
    if (!s.ok() && first_error.ok()) first_error = std::move(s);
  }
  return first_error;
}

std::string Registry::HandleReload(const JsonValue& request) {
  std::vector<std::string> names;
  if (const JsonValue* model = request.Find("model"); model != nullptr) {
    if (model->kind != JsonValue::Kind::kString) {
      return ErrorResponse(
          util::Status::InvalidArgument("\"model\" must be a string"));
    }
    names.push_back(model->str);
  } else {
    for (const ModelInfo& info : ListModels()) names.push_back(info.name);
  }
  std::string out = "{\"ok\":true,";
  AppendKey("reloaded", &out);
  out.push_back('[');
  for (size_t i = 0; i < names.size(); ++i) {
    util::Status s = Reload(names[i]);
    if (!s.ok()) return ErrorResponse(s);
    if (i > 0) out.push_back(',');
    out += "{";
    AppendStringField("model", names[i], &out);
    out.push_back(',');
    uint64_t version = 0;
    for (const ModelInfo& info : ListModels()) {
      if (info.name == names[i]) version = info.version;
    }
    AppendIntField("version", version, &out);
    out.push_back('}');
  }
  out += "]}";
  return out;
}

std::string Registry::HandleModels() const {
  std::string out = "{\"ok\":true,";
  AppendStringField("default", DefaultName(), &out);
  out.push_back(',');
  AppendKey("models", &out);
  out.push_back('[');
  const std::vector<ModelInfo> models = ListModels();
  for (size_t i = 0; i < models.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += "{";
    AppendStringField("model", models[i].name, &out);
    out.push_back(',');
    AppendStringField("path", models[i].path, &out);
    out.push_back(',');
    AppendIntField("version", models[i].version, &out);
    out.push_back(',');
    AppendIntField("queries", models[i].queries, &out);
    out.push_back(',');
    AppendBoolField("is_default", models[i].is_default, &out);
    out.push_back(',');
    AppendIntField("rows", models[i].rows, &out);
    out.push_back(',');
    AppendStringField("checksum", models[i].checksum, &out);
    out.push_back(',');
    AppendBoolField("refit_capable", models[i].refit_capable, &out);
    out.push_back(',');
    AppendKey("lineage", &out);
    AppendLineage(models[i].has_lineage, models[i].lineage, &out);
    out.push_back('}');
  }
  out += "]}";
  return out;
}

std::string Registry::HandleLine(const std::string& line,
                                 core::LossKernel* kernel) {
  return std::move(HandleBatch({&line, 1}, kernel)[0]);
}

std::shared_ptr<const Engine> Registry::Snapshot(const std::string& name,
                                                 std::string* resolved,
                                                 uint64_t* version) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry* entry = FindEntryLocked(name);
  if (entry == nullptr) return nullptr;
  entry->queries.fetch_add(1, std::memory_order_relaxed);
  if (obs::Enabled()) entry->counter->Increment();
  *resolved = entry->name;
  *version = entry->version;
  return entry->engine;  // snapshot: reloads cannot retract it
}

std::shared_ptr<const Engine> Registry::Route(const JsonValue& request,
                                              std::string* cache_key,
                                              std::string* error) {
  std::string name;
  if (const JsonValue* model = request.Find("model"); model != nullptr) {
    if (model->kind != JsonValue::Kind::kString) {
      LIMBO_OBS_COUNT("serve.query.errors", 1);
      *error = ErrorResponse(
          util::Status::InvalidArgument("\"model\" must be a string"));
      return nullptr;
    }
    name = model->str;
  }
  std::string resolved;
  uint64_t version = 0;
  std::shared_ptr<const Engine> engine = Snapshot(name, &resolved, &version);
  if (engine == nullptr) {
    LIMBO_OBS_COUNT("serve.query.errors", 1);
    *error = ErrorResponse(util::Status::NotFound(
        "unknown model \"" + (name.empty() ? DefaultName() : name) + "\""));
    return nullptr;
  }
  if (cache_ != nullptr) {
    *cache_key = ResponseCacheKey(resolved, version, request);
  }
  return engine;
}

std::vector<std::string> Registry::HandleBatch(
    std::span<const std::string> lines, core::LossKernel* kernel) {
  std::vector<std::string> responses(lines.size());
  std::vector<JsonValue> parsed(lines.size());
  // One routed cache miss awaiting engine dispatch.
  struct Routed {
    size_t index;
    std::shared_ptr<const Engine> engine;
    std::string cache_key;
  };
  std::vector<Routed> routed;
  for (size_t i = 0; i < lines.size(); ++i) {
    util::Result<JsonValue> request = util::ParseJson(lines[i]);
    if (!request.ok()) {
      LIMBO_OBS_COUNT("serve.query.errors", 1);
      responses[i] = ErrorResponse(request.status());
      continue;
    }
    if (request->kind != JsonValue::Kind::kObject) {
      LIMBO_OBS_COUNT("serve.query.errors", 1);
      responses[i] = ErrorResponse(
          util::Status::InvalidArgument("query must be a JSON object"));
      continue;
    }
    const JsonValue* op = request->Find("op");
    if (op == nullptr || op->kind != JsonValue::Kind::kString) {
      LIMBO_OBS_COUNT("serve.query.errors", 1);
      responses[i] = ErrorResponse(
          util::Status::InvalidArgument("query needs a string field \"op\""));
      continue;
    }
    if (op->str == "reload") {
      LIMBO_OBS_COUNT("serve.query.reload", 1);
      responses[i] = HandleReload(*request);
      continue;
    }
    if (op->str == "models") {
      LIMBO_OBS_COUNT("serve.query.models", 1);
      responses[i] = HandleModels();
      continue;
    }
    parsed[i] = std::move(*request);
    std::string cache_key;
    std::string error;
    std::shared_ptr<const Engine> engine = Route(parsed[i], &cache_key, &error);
    if (engine == nullptr) {
      responses[i] = std::move(error);
      continue;
    }
    if (cache_ != nullptr) {
      std::string cached;
      if (cache_->Lookup(cache_key, &cached)) {
        LIMBO_OBS_COUNT("serve.cache.hits", 1);
        responses[i] = std::move(cached);
        continue;
      }
      LIMBO_OBS_COUNT("serve.cache.misses", 1);
    }
    routed.push_back(Routed{i, std::move(engine), std::move(cache_key)});
  }
  // Group the remaining requests by engine snapshot (first-appearance
  // order; a mid-batch reload can split one model into two snapshots,
  // each answering on the engine it was routed to) and dispatch each
  // group through the engine's batched path.
  std::vector<char> grouped(routed.size(), 0);
  for (size_t g = 0; g < routed.size(); ++g) {
    if (grouped[g] != 0) continue;
    const Engine* engine = routed[g].engine.get();
    std::vector<size_t> members;
    std::vector<const JsonValue*> requests;
    for (size_t j = g; j < routed.size(); ++j) {
      if (grouped[j] == 0 && routed[j].engine.get() == engine) {
        grouped[j] = 1;
        members.push_back(j);
        requests.push_back(&parsed[routed[j].index]);
      }
    }
    std::vector<std::string> batch = engine->HandleRequests(requests, kernel);
    for (size_t m = 0; m < members.size(); ++m) {
      const Routed& r = routed[members[m]];
      if (cache_ != nullptr) cache_->Insert(r.cache_key, batch[m]);
      responses[r.index] = std::move(batch[m]);
    }
  }
  return responses;
}

}  // namespace limbo::serve
