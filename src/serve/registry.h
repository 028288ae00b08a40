#ifndef LIMBO_SERVE_REGISTRY_H_
#define LIMBO_SERVE_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "core/prob.h"
#include "obs/counters.h"
#include "serve/cache.h"
#include "serve/engine.h"
#include "util/result.h"

namespace limbo::serve {

/// One registered model's public metadata (what the "models" admin op
/// reports).
struct ModelInfo {
  std::string name;
  std::string path;
  uint64_t version = 0;  // 1 on first load, +1 per successful reload
  uint64_t queries = 0;  // routed queries answered so far
  bool is_default = false;
  // Bundle provenance, from the engine currently serving the model (so
  // a reload that swaps in a refitted child updates these atomically
  // with the engine swap).
  uint64_t rows = 0;
  std::string checksum;  // 16-hex payload checksum of the bundle file
  bool refit_capable = false;  // carries a rehydratable phase-1 tree
  bool has_lineage = false;    // refit child (lineage below is valid)
  model::BundleLineage lineage;
};

/// A named collection of serving engines over frozen .limbo bundles.
/// Safe for concurrent readers and concurrent reloads: lookups hand out
/// a std::shared_ptr<const Engine> snapshot, so a query that started on
/// one engine finishes on it even if a reload swaps the entry mid-query.
///
/// Reloads are blue/green: the fresh bundle is loaded and validated
/// entirely off to the side, then swapped in atomically under the
/// registry lock. On any load failure the old engine keeps serving and
/// the entry's version does not change — a half-loaded model is never
/// observable.
///
/// HandleBatch is the full protocol entry point: it parses each query
/// once, routes it by the optional "model" field (the default model when
/// omitted), and implements the admin ops "reload" and "models" that
/// exist above any single engine.
class Registry {
 public:
  /// `cache_entries` > 0 enables the bounded LRU response cache: routed
  /// query responses are cached under (model, engine version, canonical
  /// request) keys — see ResponseCache for the reload-invalidation
  /// guarantee. 0 (the default) disables caching entirely.
  explicit Registry(EngineOptions engine_options = {},
                    size_t cache_entries = 0);

  /// Loads the bundle at `path` and registers it under `name`. The
  /// first model added becomes the default. Duplicate names are an
  /// error; nothing is registered on a load failure.
  util::Status AddModel(const std::string& name, const std::string& path);

  /// Registers every `*.limbo` file in `dir` (model name = file stem),
  /// in lexicographic filename order. Errors if the directory cannot be
  /// read or holds no bundles.
  util::Status AddDirectory(const std::string& dir);

  /// Makes `name` the default model for queries without a "model" field.
  util::Status SetDefault(const std::string& name);

  size_t NumModels() const;
  std::string DefaultName() const;
  std::vector<ModelInfo> ListModels() const;

  /// Snapshot lookup; empty name means the default model. Returns
  /// nullptr when the name is unknown (or the registry is empty).
  std::shared_ptr<const Engine> Lookup(const std::string& name) const;

  /// Blue/green reload of one model from its registered path. On
  /// success the new engine is swapped in atomically and the version
  /// bumps; on failure the old engine keeps serving unchanged.
  util::Status Reload(const std::string& name);

  /// Reloads every model. All models are attempted; the first error is
  /// returned (prefixed with the model name).
  util::Status ReloadAll();

  /// Answers one query line: HandleBatch on a batch of one.
  std::string HandleLine(const std::string& line, core::LossKernel* kernel);

  /// Answers a batch of query lines with one kernel, returning one
  /// response per line, in order. Never fails — protocol errors come
  /// back as {"ok":false,...}. Per-engine sub-batches dispatch through
  /// Engine::HandleRequests so assign/duplicates rows share one
  /// AssignBatch scan; admin ops execute inline at their position in
  /// the batch (a "reload" mid-batch affects which engine later lines
  /// snapshot, exactly as it would between two single-line batches).
  std::vector<std::string> HandleBatch(std::span<const std::string> lines,
                                       core::LossKernel* kernel);

  /// Response-cache counters (0 when the cache is disabled).
  uint64_t CacheHits() const;
  uint64_t CacheMisses() const;

 private:
  struct Entry {
    std::string name;
    std::string path;
    std::shared_ptr<const Engine> engine;  // swapped under mu_
    uint64_t version = 1;
    std::atomic<uint64_t> queries{0};
    obs::Counter* counter = nullptr;  // serve.model.<name>.queries
  };

  util::Result<std::shared_ptr<const Engine>> LoadEngine(
      const std::string& path) const;
  Entry* FindEntryLocked(const std::string& name) const;
  std::string HandleReload(const util::JsonValue& request);
  std::string HandleModels() const;

  /// Snapshots the engine serving `name` (empty = default) and bumps its
  /// query tally. `resolved` and `version` receive the entry's name and
  /// current version from the same critical section, so a cache key
  /// built from them can never pair an old version with a new engine.
  std::shared_ptr<const Engine> Snapshot(const std::string& name,
                                         std::string* resolved,
                                         uint64_t* version);

  /// HandleBatch's routing step: validates the parsed request's "model"
  /// field and snapshots the target engine (null plus an error response
  /// in `*error` when routing fails). When the cache is enabled, also
  /// builds the request's cache key.
  std::shared_ptr<const Engine> Route(const util::JsonValue& request,
                                      std::string* cache_key,
                                      std::string* error);

  EngineOptions engine_options_;
  std::unique_ptr<ResponseCache> cache_;  // null when disabled
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Entry>> entries_;  // insertion order
  std::string default_name_;
};

}  // namespace limbo::serve

#endif  // LIMBO_SERVE_REGISTRY_H_
