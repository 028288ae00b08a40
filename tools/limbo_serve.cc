// limbo-serve: online query daemon over frozen .limbo model bundles.
//
//   limbo-serve model.limbo [flags]
//   limbo-serve --model name=path [--model name2=path2 ...] [flags]
//   limbo-serve --models-dir=dir [flags]
//
// Flags: [--port=7070] [--workers=1] [--max-pending=128]
//        [--batch-max=16] [--cache-entries=0]
//        [--default-model=name] [--oov=drop|strict]
//        [--once] [--query=<json> ...]
//
// Every registered bundle (written by `limbo-tool fit`) is loaded once;
// every query after that is answered from memory. The protocol is
// newline-delimited JSON, one object per line, identical over TCP and
// --once:
//
//   {"op":"assign","row":["a","b","c"]}      -> cluster id + loss
//   {"op":"assign","csv":"a,b,c"}            -> same, raw CSV record
//   {"op":"duplicates","row":[...]}          -> near-duplicate check
//   {"op":"valuegroup","attr":"A","value":"x"} -> the value's group
//   {"op":"attrs"}                           -> attribute dendrogram
//   {"op":"fds","limit":10}                  -> ranked dependencies
//   {"op":"schemes","limit":10}              -> mined acyclic schemes
//   {"op":"info"}                            -> model metadata
//   {"op":"models"}                          -> the registry (admin)
//   {"op":"reload"[,"model":"name"]}         -> blue/green hot reload
//
// Any query may carry a "model" field naming the bundle it targets; the
// default model (the first registered, or --default-model) answers when
// it is omitted. Responses are one JSON object per line: {"ok":true,...}
// on success, {"ok":false,"code":...,"error":...} on any malformed or
// unanswerable query (the process never exits on a bad query).
//
// --once reads queries from --query flags (in order) or stdin, writes
// responses to stdout and exits — the mode the tests, CI smoke job and
// doc-consistency check drive. Responses are bit-identical at every
// --workers count: assignment is a pure function of (row, bundle).
//
// TCP mode accepts connections on --port (0 = ephemeral; the chosen port
// is printed); a reactor thread multiplexes every connection and
// --workers lanes drain queued requests in batches of up to --batch-max
// (a lane takes what is queued and never waits for a fuller batch).
// Connections beyond workers + --max-pending are shed immediately with
// {"ok":false,"code":"overloaded",...}. --cache-entries>0 enables the
// bounded LRU response cache, keyed by model version so hot reloads
// invalidate atomically. SIGHUP hot-reloads every model
// (in-flight queries finish on their engine snapshot; none is dropped),
// and SIGINT/SIGTERM shut down cleanly, draining in-flight connections
// first. SIGPIPE is ignored: a client disconnecting mid-response only
// ends that connection, never the daemon.
//
// Every flag but --once and --model takes its value as --flag=value;
// --once takes none. Unknown flags, a missing value and a value given to
// --once are rejected with exit code 2 (doc_check relies on that).

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/prob.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "util/parallel.h"
#include "util/strings.h"

namespace {

using namespace limbo;  // NOLINT

// Lock-free atomics are async-signal-safe, so the handler may store
// them and the acceptor thread may read them without a data race.
std::atomic<int> g_shutdown{0};
std::atomic<int> g_reload{0};

void HandleSignal(int sig) {
  if (sig == SIGHUP) {
    g_reload.store(1, std::memory_order_relaxed);
  } else {
    g_shutdown.store(1, std::memory_order_relaxed);
  }
}

/// Installs the daemon's signal disposition: SIGINT/SIGTERM drain and
/// exit, SIGHUP hot-reloads, SIGPIPE is ignored (a peer closing
/// mid-response must surface as a send error on that connection, not
/// kill the process). Deliberately no SA_RESTART: blocked socket calls
/// return EINTR so the flags are observed promptly — the socket path
/// retries EINTR everywhere.
void InstallSignalHandlers() {
  struct sigaction sa = {};
  sa.sa_handler = HandleSignal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGHUP, &sa, nullptr);
  std::signal(SIGPIPE, SIG_IGN);
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: limbo-serve model.limbo [--model name=path ...]\n"
      "                   [--models-dir=dir] [--default-model=name]\n"
      "                   [--port=7070] [--workers=1] [--max-pending=128]\n"
      "                   [--batch-max=16] [--cache-entries=0]\n"
      "                   [--oov=drop|strict] [--once] [--query=<json> ...]\n");
  return 2;
}

struct ServeArgs {
  std::vector<std::pair<std::string, std::string>> models;  // name -> path
  std::vector<std::string> model_dirs;
  std::string default_model;
  size_t port = 7070;
  size_t workers = 1;
  size_t max_pending = 128;
  size_t batch_max = 16;
  size_t cache_entries = 0;
  serve::OovPolicy oov = serve::OovPolicy::kDrop;
  bool once = false;
  std::vector<std::string> queries;
};

/// "name.limbo" -> "name": the registry name of a positional bundle.
std::string ModelNameFromPath(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  std::string stem = slash == std::string::npos ? path : path.substr(slash + 1);
  const size_t dot = stem.find_last_of('.');
  if (dot != std::string::npos && dot > 0) stem = stem.substr(0, dot);
  return stem.empty() ? "default" : stem;
}

bool ParseServeArgs(int argc, char** argv, ServeArgs* args) {
  const struct {
    const char* name;
    size_t min;
    size_t max;
    const char* rule;
    size_t* out;
  } kSizeFlags[] = {
      {"port", 0, 65535, "an integer in [0, 65535]", &args->port},
      {"workers", 1, util::kMaxThreads, "an integer in [1, 4096]",
       &args->workers},
      {"max-pending", 1, 1 << 20, "a positive integer", &args->max_pending},
      {"batch-max", 1, 4096, "an integer in [1, 4096]", &args->batch_max},
      {"cache-entries", 0, 1 << 24, "an integer in [0, 16777216]",
       &args->cache_entries},
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      // Positional bundle path, registered under its file stem.
      args->models.emplace_back(ModelNameFromPath(arg), arg);
      continue;
    }
    const size_t eq = arg.find('=');
    const bool has_value = eq != std::string::npos;
    const std::string key = has_value ? arg.substr(2, eq - 2) : arg.substr(2);
    const std::string value = has_value ? arg.substr(eq + 1) : "";
    if (key == "once") {
      if (has_value) {
        std::fprintf(stderr,
                     "limbo-serve: --once takes no value, got \"%s\"\n",
                     value.c_str());
        return false;
      }
      args->once = true;
      continue;
    }
    if (key == "model") {
      // Accepts both --model name=path and --model=name=path.
      std::string spec = value;
      if (!has_value && i + 1 < argc) spec = argv[++i];
      const size_t sep = spec.find('=');
      if (sep == std::string::npos || sep == 0 || sep + 1 == spec.size()) {
        std::fprintf(stderr, "limbo-serve: --model needs name=path\n");
        return false;
      }
      args->models.emplace_back(spec.substr(0, sep), spec.substr(sep + 1));
      continue;
    }
    const auto* size_flag = std::find_if(
        std::begin(kSizeFlags), std::end(kSizeFlags),
        [&](const auto& flag) { return key == flag.name; });
    const bool is_size = size_flag != std::end(kSizeFlags);
    if (!is_size && key != "models-dir" && key != "default-model" &&
        key != "oov" && key != "query") {
      std::fprintf(stderr, "limbo-serve: unknown flag --%s\n", key.c_str());
      return false;
    }
    if (!has_value) {
      std::fprintf(stderr, "limbo-serve: --%s needs a value (--%s=...)\n",
                   key.c_str(), key.c_str());
      return false;
    }
    if (is_size) {
      size_t parsed = 0;
      if (!util::ParseSize(value, &parsed) || parsed < size_flag->min ||
          parsed > size_flag->max) {
        std::fprintf(stderr, "limbo-serve: --%s must be %s, got \"%s\"\n",
                     key.c_str(), size_flag->rule, value.c_str());
        return false;
      }
      *size_flag->out = parsed;
    } else if (key == "models-dir") {
      args->model_dirs.push_back(value);
    } else if (key == "default-model") {
      args->default_model = value;
    } else if (key == "oov") {
      if (value == "drop") {
        args->oov = serve::OovPolicy::kDrop;
      } else if (value == "strict") {
        args->oov = serve::OovPolicy::kStrict;
      } else {
        std::fprintf(stderr, "limbo-serve: --oov must be drop or strict\n");
        return false;
      }
    } else {
      args->queries.push_back(value);
    }
  }
  if (args->models.empty() && args->model_dirs.empty()) {
    std::fprintf(stderr, "limbo-serve: no model bundles given\n");
    return false;
  }
  return true;
}

/// --once: answer the given queries (or stdin lines) and exit. Queries
/// are dispatched across the worker lanes in --batch-max chunks (the
/// same Registry::HandleBatch path the TCP server drives) but responses
/// print in input order, so the output is byte-identical at every
/// worker count and batch size.
int RunOnce(serve::Registry* registry, const ServeArgs& args) {
  std::vector<std::string> queries = args.queries;
  if (queries.empty()) {
    std::string line;
    while (std::getline(std::cin, line)) {
      if (!line.empty()) queries.push_back(line);
    }
  }
  std::vector<std::string> responses(queries.size());
  util::ThreadPool pool(args.workers);
  std::vector<core::LossKernel> kernels(pool.threads());
  const size_t batch = args.batch_max == 0 ? 1 : args.batch_max;
  const size_t chunks = (queries.size() + batch - 1) / batch;
  pool.ParallelFor(0, chunks, 1, [&](size_t begin, size_t end, size_t lane) {
    for (size_t c = begin; c < end; ++c) {
      const size_t lo = c * batch;
      const size_t hi = std::min(queries.size(), lo + batch);
      std::vector<std::string> answers = registry->HandleBatch(
          std::span<const std::string>(queries.data() + lo, hi - lo),
          &kernels[lane]);
      std::move(answers.begin(), answers.end(), responses.begin() + lo);
    }
  });
  for (const std::string& response : responses) {
    std::fputs(response.c_str(), stdout);
    std::fputc('\n', stdout);
  }
  return 0;
}

int RunTcp(serve::Registry* registry, const ServeArgs& args) {
  InstallSignalHandlers();
  serve::ServerOptions options;
  options.port = static_cast<int>(args.port);
  options.workers = args.workers;
  options.max_pending = args.max_pending;
  options.batch_max = args.batch_max;
  util::Result<std::unique_ptr<serve::Server>> server =
      serve::Server::Start(registry, options);
  if (!server.ok()) {
    std::fprintf(stderr, "limbo-serve: %s\n",
                 server.status().ToString().c_str());
    return 1;
  }
  std::printf("limbo-serve: listening on 127.0.0.1:%d (%zu workers, "
              "%zu models, default \"%s\")\n",
              (*server)->port(), args.workers, registry->NumModels(),
              registry->DefaultName().c_str());
  std::fflush(stdout);
  (*server)->Run(&g_shutdown, &g_reload);
  std::printf("limbo-serve: shut down cleanly\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ServeArgs args;
  if (!ParseServeArgs(argc, argv, &args)) return Usage();
  serve::EngineOptions engine_options;
  engine_options.oov = args.oov;
  serve::Registry registry(engine_options, args.cache_entries);
  for (const auto& [name, path] : args.models) {
    const util::Status status = registry.AddModel(name, path);
    if (!status.ok()) {
      std::fprintf(stderr, "limbo-serve: %s\n", status.ToString().c_str());
      return 1;
    }
  }
  for (const std::string& dir : args.model_dirs) {
    const util::Status status = registry.AddDirectory(dir);
    if (!status.ok()) {
      std::fprintf(stderr, "limbo-serve: %s\n", status.ToString().c_str());
      return 1;
    }
  }
  if (!args.default_model.empty()) {
    const util::Status status = registry.SetDefault(args.default_model);
    if (!status.ok()) {
      std::fprintf(stderr, "limbo-serve: %s\n", status.ToString().c_str());
      return 1;
    }
  }
  if (args.once) return RunOnce(&registry, args);
  return RunTcp(&registry, args);
}
