// The two serving workloads, both an in-process serve::Server over two
// bundles fitted in set-up (k=10 and k=64, with mined schemes) driven by
// the open-loop generator of load.h:
//
//  - serve: 2 worker lanes; 80% assign, 10% duplicates, 10% valuegroup /
//    fds / schemes / attrs / info, on Zipf(1.1)-ranked rows from a pool of
//    fitted and held-out rows larger than the response cache;
//  - serve-refit: 1 worker lane; assign-only traffic on rows that never
//    repeat, while a writer thread cycles RefitModel on the rows just
//    served -> Save over the registered path -> {"op":"reload"}.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "core/prob.h"
#include "datagen/dblp.h"
#include "load.h"
#include "model/fit.h"
#include "model/model_bundle.h"
#include "model/refit.h"
#include "relation/csv_io.h"
#include "relation/row_source.h"
#include "serve/engine.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "util/json.h"
#include "workloads.h"

namespace limbo::perfbench {
namespace {

constexpr int kNumModels = 2;
const char* const kModelNames[kNumModels] = {"k10", "k64"};
const size_t kModelK[kNumModels] = {10, 64};

// Fixed by the workload definition (the same on serve and serve-refit).
constexpr size_t kBatchMax = 16;         // server batch_max
constexpr size_t kCacheEntries = 4096;   // response cache
constexpr size_t kConnections = 4;       // one generator thread's sockets
constexpr double kP99LimitUs = 1000;     // ladder: a step meets p99 <= this
constexpr double kLagBudgetUs = 500;     // a window whose generator p99 lag
                                         // exceeds this is invalid
constexpr double kLadderRatio = 1.05;    // ladder steps 5% apart
constexpr int kLadderSteps = 62;         // ladder-min * 1.05^61 ~ 20x
constexpr size_t kRefitRows = 2000;      // serve-refit: rows per refit
constexpr double kWarmupS = 0.5;         // one window at the light rate
constexpr double kDrainSeconds = 1.0;    // a step waits this long past its
                                         // last due time; later is dropped

std::string BundlePath(const std::string& dir, int m) {
  return dir + "/" + kModelNames[m] + ".limbo";
}
std::string BasePath(const std::string& dir, int m) {
  return dir + "/" + kModelNames[m] + ".base.limbo";
}

uint64_t Mix(uint64_t x) {  // splitmix64 finalizer
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

double Unit(uint64_t h) {
  return static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
}

std::string CsvField(const std::string& field) {
  if (field.find_first_of(",\"\r\n") == std::string::npos) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

std::string CsvLine(const std::vector<std::string>& fields) {
  std::string line;
  for (size_t a = 0; a < fields.size(); ++a) {
    if (a > 0) line.push_back(',');
    line += CsvField(fields[a]);
  }
  return line;
}

std::vector<std::string> RowFields(const relation::Relation& rel,
                                   relation::TupleId t) {
  std::vector<std::string> fields(rel.NumAttributes());
  for (relation::AttributeId a = 0; a < rel.NumAttributes(); ++a) {
    fields[a] = rel.TextAt(t, a);
  }
  return fields;
}

/// Distinct rows of a DBLP relation drawn from `seed`, each with at least
/// one value the fitted dictionary knows (so every assign succeeds).
std::vector<std::vector<std::string>> HeldOutRows(
    const relation::ValueDictionary& known, uint64_t seed, size_t count,
    std::unordered_set<std::string>* seen) {
  std::vector<std::vector<std::string>> rows;
  for (uint64_t round = 0; rows.size() < count; ++round) {
    datagen::DblpOptions options;
    options.seed = Mix(seed + round);
    options.target_tuples = count + count / 4;
    const relation::Relation rel = datagen::GenerateDblp(options);
    for (relation::TupleId t = 0; t < rel.NumTuples() && rows.size() < count;
         ++t) {
      std::vector<std::string> fields = RowFields(rel, t);
      bool any_known = false;
      for (size_t a = 0; a < fields.size() && !any_known; ++a) {
        any_known = known.Find(static_cast<relation::AttributeId>(a),
                               fields[a]).ok();
      }
      if (any_known && seen->insert(CsvLine(fields)).second) {
        rows.push_back(std::move(fields));
      }
    }
  }
  return rows;
}

// ------------------------------------------------------------ traffic --

/// The request a given id stands for. Derived from (seed, id) alone, so
/// the generator, the checker and the in-process replay agree on it.
struct Request {
  enum Kind { kAssign, kDuplicates, kValueGroup, kFds, kSchemes, kAttrs, kInfo };
  Kind kind;
  int model;
  uint32_t index;  // pool row, or value-query slot for valuegroup
};

constexpr size_t kValueQueries = 256;

/// Rows and value queries the traffic draws from, plus the request mix.
class Traffic {
 public:
  Traffic(const Args& args, bool refit, const model::ModelBundle& base)
      : seed_(args.RequireInt("seed")),
        refit_(refit),
        pool_(Must(relation::ReadCsv(args.Require("dir") + "/pool.csv"),
                   "read pool")) {
    header_ = CsvLine(pool_.schema().Names());
    // Zipf(1.1) over the pool's rank order.
    double total = 0.0;
    for (size_t r = 0; r < pool_.NumTuples(); ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), 1.1);
      zipf_cdf_.push_back(total);
    }
    for (double& c : zipf_cdf_) c /= total;
    // Value queries over values both bundles know (same fitted relation),
    // each from a value group drawn uniformly. Drawn uniformly over values
    // instead, they would mostly ask for the largest group, whose size
    // (and response, up to 30 KB) swings tenfold with the seed's data.
    const relation::ValueDictionary& dict = base.dictionary;
    std::vector<const core::ValueGroup*> groups;
    for (const core::ValueGroup& g : base.value_groups) {
      if (!g.values.empty()) groups.push_back(&g);
    }
    if (groups.empty()) {
      std::fprintf(stderr, "limbo-perf: the bundle has no value groups\n");
      std::exit(1);
    }
    for (size_t i = 0; i < kValueQueries; ++i) {
      const core::ValueGroup& g = *groups[Mix(seed_ * 31 + i) % groups.size()];
      const relation::ValueId v = g.values[Mix(seed_ * 37 + i) % g.values.size()];
      std::string q = "{\"op\":\"valuegroup\",\"model\":\"%M\",\"attr\":";
      util::AppendJsonString(base.schema.Name(dict.Attribute(v)), &q);
      q += ",\"value\":";
      util::AppendJsonString(dict.Text(v), &q);
      q.push_back('}');
      value_queries_.push_back(std::move(q));
    }
  }

  size_t NumRows() const { return pool_.NumTuples(); }
  std::vector<std::string> Row(size_t r) const {
    return RowFields(pool_, static_cast<relation::TupleId>(r));
  }
  const std::string& Header() const { return header_; }

  Request Decode(uint64_t id) const {
    const uint64_t h = Mix(seed_ ^ Mix(id));
    Request r;
    r.model = static_cast<int>(Mix(h) & 1);
    if (refit_) {  // assign-only, every row once
      r.kind = Request::kAssign;
      r.model = static_cast<int>(id & 1);
      r.index = static_cast<uint32_t>(id % NumRows());
      return r;
    }
    const double u = Unit(h);
    if (u < 0.8) {
      r.kind = Request::kAssign;
    } else if (u < 0.9) {
      r.kind = Request::kDuplicates;
    } else {
      r.kind = static_cast<Request::Kind>(
          Request::kValueGroup + static_cast<int>((u - 0.9) / 0.1 * 5));
      if (r.kind > Request::kInfo) r.kind = Request::kInfo;
    }
    if (r.kind == Request::kValueGroup) {
      r.index = static_cast<uint32_t>(Mix(h + 1) % kValueQueries);
    } else {
      const double z = Unit(Mix(h + 2));
      r.index = static_cast<uint32_t>(
          std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), z) -
          zipf_cdf_.begin());
      if (r.index >= NumRows()) r.index = NumRows() - 1;
    }
    return r;
  }

  void Line(const Request& r, std::string* out) const {
    const char* model = kModelNames[r.model];
    switch (r.kind) {
      case Request::kAssign:
      case Request::kDuplicates:
        *out += r.kind == Request::kAssign ? "{\"op\":\"assign\",\"model\":\""
                                           : "{\"op\":\"duplicates\",\"model\":\"";
        *out += model;
        *out += "\",\"row\":[";
        for (relation::AttributeId a = 0; a < pool_.NumAttributes(); ++a) {
          if (a > 0) out->push_back(',');
          util::AppendJsonString(pool_.TextAt(r.index, a), out);
        }
        *out += "]}";
        return;
      case Request::kValueGroup: {
        const std::string& q = value_queries_[r.index];
        const size_t at = q.find("%M");
        out->append(q, 0, at);
        *out += model;
        out->append(q, at + 2);
        return;
      }
      case Request::kFds:
        *out += "{\"op\":\"fds\",\"limit\":5,\"model\":\"";
        break;
      case Request::kSchemes:
        *out += "{\"op\":\"schemes\",\"limit\":3,\"model\":\"";
        break;
      case Request::kAttrs:
        *out += "{\"op\":\"attrs\",\"model\":\"";
        break;
      case Request::kInfo:
        *out += "{\"op\":\"info\",\"model\":\"";
        break;
    }
    *out += model;
    *out += "\"}";
  }

  std::string Line(uint64_t id) const {
    std::string line;
    Line(Decode(id), &line);
    return line;
  }

 private:
  uint64_t seed_;
  bool refit_;
  relation::Relation pool_;
  std::string header_;
  std::vector<double> zipf_cdf_;
  std::vector<std::string> value_queries_;
};

/// Share of each request kind in the serve traffic (Traffic::Decode).
constexpr double kMix[Request::kInfo + 1] = {0.8, 0.1, 0.02, 0.02,
                                             0.02, 0.02, 0.02};
/// Times a request is timed again after its first answer: twice, or 128
/// times for a kind with a single distinct request.
constexpr size_t kRetimes = 2;
constexpr size_t kSingleRetimes = 128;

/// Reference responses of the serve workload, computed up front by a
/// private engine per model opened from the same bundle files: every
/// (op, model, row) the traffic can ask for. Each answer is timed; the
/// same engines then time each request again, in a shuffled order and in
/// slices spread over the load phases. The shared host's speed swings
/// within a second; a request keeps its fastest answer. Each kind's
/// median is logged.
class ReferenceTable {
 public:
  ReferenceTable(const std::string& dir, const Traffic& traffic, uint64_t seed)
      : traffic_(traffic) {
    for (int m = 0; m < kNumModels; ++m) {
      engines_[m] = std::make_unique<serve::Engine>(
          Must(serve::Engine::Open(BundlePath(dir, m)), "open engine"));
      for (int kind = 0; kind <= Request::kInfo; ++kind) {
        const auto k = static_cast<Request::Kind>(kind);
        const size_t n = k == Request::kAssign || k == Request::kDuplicates
                             ? traffic.NumRows()
                             : k == Request::kValueGroup ? kValueQueries : 1;
        std::vector<std::string>& table = table_[m][kind];
        table.reserve(n);
        std::string line;
        for (size_t i = 0; i < n; ++i) {
          const Request r{k, m, static_cast<uint32_t>(i)};
          line.clear();
          traffic.Line(r, &line);
          const auto start = Clock::now();
          table.push_back(engines_[m]->HandleLine(line, &kernel_));
          fastest_s_[m][kind].push_back(SecondsSince(start));
          order_.insert(order_.end(), n == 1 ? kSingleRetimes : kRetimes, r);
        }
      }
    }
    std::shuffle(order_.begin(), order_.end(), std::mt19937_64(Mix(seed)));
  }

  const std::string& Get(const Request& r) const {
    const std::vector<std::string>& table = table_[r.model][r.kind];
    return table[table.size() == 1 ? 0 : r.index];
  }

  /// Answers still to time after the first.
  size_t NumRetimes() const { return order_.size(); }

  /// Times the next `count` of them (none past the last).
  void Retime(size_t count) {
    std::string line;
    for (; count > 0 && next_ < order_.size(); --count, ++next_) {
      const Request& r = order_[next_];
      line.clear();
      traffic_.Line(r, &line);
      const auto start = Clock::now();
      const std::string response = engines_[r.model]->HandleLine(line, &kernel_);
      double& fastest = fastest_s_[r.model][r.kind][r.index];
      fastest = std::min(fastest, SecondsSince(start));
    }
  }

  /// Time one lane takes to answer one request of the traffic mix: each
  /// kind's median answer time on each model, weighted by its share of the
  /// traffic. The median of all answers together would sit between the
  /// assign and duplicates answer times and jump between them.
  double MixAnswerSeconds() const {
    double total = 0.0;
    for (int m = 0; m < kNumModels; ++m) {
      std::fprintf(stderr, "limbo-perf: %s answer us by op:", kModelNames[m]);
      for (int kind = 0; kind <= Request::kInfo; ++kind) {
        const double median = Median(fastest_s_[m][kind]);
        std::fprintf(stderr, " %.2f", median * 1e6);
        total += kMix[kind] / kNumModels * median;
      }
      std::fprintf(stderr, "\n");
    }
    return total;
  }

 private:
  const Traffic& traffic_;
  std::unique_ptr<serve::Engine> engines_[kNumModels];
  core::LossKernel kernel_;
  std::vector<std::string> table_[kNumModels][Request::kInfo + 1];
  std::vector<Request> order_;  // the answers to time again
  size_t next_ = 0;
  // Per distinct request, its fastest answer so far.
  std::vector<double> fastest_s_[kNumModels][Request::kInfo + 1];
};

// -------------------------------------------------------------- server --

/// The knobs that differ between serve and serve-refit, from spec.json.
struct ServeConfig {
  explicit ServeConfig(const Args& args)
      : dir(args.Require("dir")),
        seconds(args.RequireDouble("seconds")),
        workers(args.RequireInt("workers")),
        light(args.RequireDouble("light")),
        heavy(args.RequireDouble("heavy")),
        ladder_min(args.RequireDouble("ladder-min")),
        window_s(args.RequireDouble("window-s")),
        // Each fixed rate runs for half of --seconds in whole windows.
        windows(std::max<size_t>(
            1, static_cast<size_t>(std::floor(seconds / 2 / window_s + 1e-9)))) {}

  std::string dir;
  double seconds;
  size_t workers;
  double light, heavy, ladder_min;
  double window_s;
  size_t windows;  // per fixed rate
};

/// Registry + Server + reactor thread over the bundles in `dir`, torn down
/// in the destructor.
class ServerHarness {
 public:
  ServerHarness(const std::string& dir, size_t workers)
      : registry_({}, kCacheEntries) {
    for (int m = 0; m < kNumModels; ++m) {
      MustOk(registry_.AddModel(kModelNames[m], BundlePath(dir, m)),
             "register model");
    }
    serve::ServerOptions options;
    options.workers = workers;
    options.batch_max = kBatchMax;
    options.poll_ms = 20;
    server_ = Must(serve::Server::Start(&registry_, options), "start server");
    reactor_ = std::thread([this] { server_->Run(&stop_); });
  }

  ~ServerHarness() {
    stop_.store(1);
    reactor_.join();
  }

  ServerHarness(const ServerHarness&) = delete;
  ServerHarness& operator=(const ServerHarness&) = delete;

  int port() const { return server_->port(); }
  const serve::Server& server() const { return *server_; }

 private:
  serve::Registry registry_;
  std::unique_ptr<serve::Server> server_;
  std::atomic<int> stop_{0};
  std::thread reactor_;
};

// -------------------------------------------------------------- writer --

/// A serve-refit response, queued for the writer thread to check.
struct Answer {
  uint64_t id;
  Clock::time_point due, received;
  std::string response;
};

/// One refit -> save -> reload cycle of the serve-refit writer.
struct Cycle {
  int model = 0;
  double refit_s = 0, save_s = 0, reload_s = 0, total_s = 0;
  bool ok = false;
};

/// Writer thread of serve-refit. Each Trigger runs one cycle, alternating
/// models: RefitModel of the model's set-up bundle on the rows most
/// recently served for it (the no-drift path), Save over the registered
/// path, and a reload round trip on its own connection. The load phases
/// trigger one cycle at the start of every window, so every window holds
/// exactly one reload.
///
/// Between cycles the same thread checks every queued response against
/// the engine of each version of its model that was live at some point
/// while the request was in flight (normally exactly one). Version 1 is
/// the set-up bundle; the version a cycle reloads is live from its reload
/// request until the next cycle's ack. A response is dropped once checked,
/// and a version once no response still to come can have met it.
class RefitWriter {
 public:
  /// `max_flight_s` bounds how long after its due time a checked response
  /// can arrive.
  RefitWriter(const ServeConfig& config, const Traffic& traffic, int port,
              double max_flight_s)
      : config_(config),
        traffic_(traffic),
        port_(port),
        max_flight_(std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(max_flight_s))) {
    for (int m = 0; m < kNumModels; ++m) {
      base_[m] = Must(model::Load(BasePath(config.dir, m)), "load base");
      versions_[m].push_back(
          {Clock::time_point::min(), Clock::time_point::max(),
           std::make_unique<serve::Engine>(Must(
               serve::Engine::Open(BasePath(config.dir, m)), "open engine"))});
    }
    thread_ = std::thread([this] { Loop(); });
  }

  ~RefitWriter() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  RefitWriter(const RefitWriter&) = delete;
  RefitWriter& operator=(const RefitWriter&) = delete;

  /// Queues one refit -> save -> reload cycle.
  void Trigger() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++requested_;
    }
    cv_.notify_all();
  }

  /// Queues a response for the check; its row becomes refit input. The
  /// writer drains the queue every kCheckTick rather than being woken per
  /// response, which would cost the generator thread a syscall each.
  void Enqueue(Answer answer) {
    const Request r = traffic_.Decode(answer.id);
    std::lock_guard<std::mutex> lock(mu_);
    served_[r.model].push_back(r.index);
    answers_.push_back(std::move(answer));
  }

  /// Waits until every triggered cycle has finished and every queued
  /// response has been checked.
  void WaitIdle() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.notify_all();
    cv_.wait(lock, [this] {
      return done_ == requested_ && answers_.empty() && !checking_;
    });
  }

  std::vector<Cycle> Cycles() const {
    std::lock_guard<std::mutex> lock(mu_);
    return cycles_;
  }

  /// Responses that matched no live model version (after WaitIdle).
  uint64_t mismatched() const {
    std::lock_guard<std::mutex> lock(mu_);
    return mismatched_;
  }

 private:
  struct Version {
    Clock::time_point from, to;
    std::unique_ptr<serve::Engine> engine;
  };
  static constexpr std::chrono::milliseconds kCheckTick{20};

  void Loop() {
    util::Result<LineClient> admin = LineClient::Connect(port_);
    int m = 0;
    std::unique_lock<std::mutex> lock(mu_);
    while (true) {
      cv_.wait_for(lock, kCheckTick, [this] {
        return stop_ || done_ < requested_;
      });
      if (stop_) return;
      if (done_ < requested_) {  // cycles first: they are due at once
        std::vector<uint32_t> rows;
        rows.swap(served_[m]);
        lock.unlock();
        if (rows.size() > kRefitRows) {
          rows.erase(rows.begin(), rows.end() - kRefitRows);
        }
        Cycle cycle;
        if (!rows.empty() && admin.ok()) cycle = RunCycle(m, rows, &*admin);
        lock.lock();
        if (!rows.empty()) cycles_.push_back(cycle);
        ++done_;
        m ^= 1;
      } else if (!answers_.empty()) {
        std::deque<Answer> batch;
        batch.swap(answers_);
        checking_ = true;
        lock.unlock();
        uint64_t bad = 0;
        for (const Answer& a : batch) bad += Check(a) ? 0 : 1;
        lock.lock();
        checking_ = false;
        mismatched_ += bad;
      }
      cv_.notify_all();
    }
  }

  Cycle RunCycle(int m, const std::vector<uint32_t>& rows, LineClient* admin) {
    Cycle cycle;
    cycle.model = m;
    const auto start = Clock::now();
    std::string csv = traffic_.Header() + "\n";
    for (uint32_t r : rows) csv += CsvLine(traffic_.Row(r)) + "\n";
    util::Result<relation::CsvStringSource> source =
        relation::CsvStringSource::Open(csv);
    if (!source.ok()) return cycle;
    model::RefitOptions options;
    options.threads = 1;
    util::Result<model::RefitResult> refit =
        model::RefitModel(base_[m], *source, options);
    cycle.refit_s = SecondsSince(start);
    if (!refit.ok() || refit->drift_class != model::DriftClass::kNone) {
      std::fprintf(stderr, "limbo-perf: refit did not take the no-drift path\n");
      return cycle;
    }
    auto t = Clock::now();
    if (!model::Save(refit->bundle, BundlePath(config_.dir, m)).ok()) {
      return cycle;
    }
    cycle.save_s = SecondsSince(t);
    const auto reload_sent = Clock::now();
    util::Result<std::string> ack = admin->Call(
        std::string("{\"op\":\"reload\",\"model\":\"") + kModelNames[m] + "\"}");
    const auto reload_acked = Clock::now();
    cycle.reload_s =
        std::chrono::duration<double>(reload_acked - reload_sent).count();
    cycle.total_s = SecondsSince(start);
    if (!ack.ok() || ack->find("\"ok\":true") == std::string::npos) {
      return cycle;
    }
    // The file the server just reloaded; opening it is not part of the
    // timed cycle.
    util::Result<serve::Engine> engine =
        serve::Engine::Open(BundlePath(config_.dir, m));
    if (!engine.ok()) return cycle;
    versions_[m].back().to = reload_acked;
    versions_[m].push_back(
        {reload_sent, Clock::time_point::max(),
         std::make_unique<serve::Engine>(std::move(engine).value())});
    cycle.ok = true;
    return cycle;
  }

  bool Check(const Answer& a) {
    const Request r = traffic_.Decode(a.id);
    std::vector<Version>& versions = versions_[r.model];
    // Responses are checked in arrival order, and each arrived at most
    // max_flight_ after it was due: a version that ended before then can
    // match neither this response nor any later one.
    while (versions.size() > 1 &&
           versions.front().to < a.received - max_flight_) {
      versions.erase(versions.begin());
    }
    line_.clear();
    traffic_.Line(r, &line_);
    for (const Version& v : versions) {
      if (v.to < a.due || v.from > a.received) continue;
      if (v.engine->HandleLine(line_, &kernel_) == a.response) return true;
    }
    return false;
  }

  const ServeConfig& config_;
  const Traffic& traffic_;
  const int port_;
  const Clock::duration max_flight_;
  model::ModelBundle base_[kNumModels];
  // Writer thread only (and the constructor, before it starts).
  std::vector<Version> versions_[kNumModels];
  core::LossKernel kernel_;
  std::string line_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  uint64_t requested_ = 0;
  uint64_t done_ = 0;
  bool checking_ = false;
  uint64_t mismatched_ = 0;
  std::vector<uint32_t> served_[kNumModels];
  std::deque<Answer> answers_;
  std::vector<Cycle> cycles_;
  std::thread thread_;
};

// ------------------------------------------------------------- measure --

/// One rate held over consecutive windows, each its own open-loop step.
/// Tail percentiles pool the requests of the valid windows: a window
/// whose generator ran late measured the generator, not the server, and
/// never counts as met. When every window ran late, all are pooled (the
/// log shows valid=0/N).
struct Phase {
  std::vector<StepResult> windows;

  size_t NumValid() const {
    size_t valid = 0;
    for (const StepResult& w : windows) valid += w.invalid ? 0 : 1;
    return valid;
  }
  double Latency(double q) const {
    const bool any_valid = NumValid() > 0;
    std::vector<double> pooled;
    for (const StepResult& w : windows) {
      if (w.invalid && any_valid) continue;
      pooled.insert(pooled.end(), w.latency_us.begin(), w.latency_us.end());
    }
    return Percentile(std::move(pooled), q);
  }
  /// Each valid window's own p50, averaged without the highest and the
  /// lowest tenth: it follows the share of the run the shared host spent
  /// fast or slow, and a stall that spoils a few windows leaves it be.
  double P50() const {
    const bool any_valid = NumValid() > 0;
    std::vector<double> p50s;
    for (const StepResult& w : windows) {
      if (w.invalid && any_valid) continue;
      p50s.push_back(Percentile(w.latency_us, 0.50));
    }
    return TrimmedMean(std::move(p50s), 0.1);
  }
  double P90() const { return Latency(0.90); }
  double P99() const { return Latency(0.99); }
  double LagP99() const {
    std::vector<double> v;
    for (const StepResult& w : windows) v.push_back(w.lag_p99_us);
    return Median(v);
  }
  /// Met when most windows are valid and each of those meets the limit
  /// (p99, nothing failed or dropped, no growing backlog) on its own.
  bool Met(double p99_limit_us) const {
    size_t met = 0;
    for (const StepResult& w : windows) met += w.Met(p99_limit_us) ? 1 : 0;
    return 2 * met > windows.size();
  }

  void Log(const char* name, double p99_limit_us) const {
    uint64_t sent = 0, bad = 0;
    for (const StepResult& w : windows) {
      sent += w.sent;
      bad += w.failed + w.dropped;
    }
    std::fprintf(stderr,
                 "limbo-perf: %-7s rate=%9.1f sent=%7llu p50=%8.1fus "
                 "p99=%9.1fus lag_p99=%7.1fus valid=%zu/%zu%s%s\n",
                 name, windows.empty() ? 0.0 : windows[0].rate,
                 static_cast<unsigned long long>(sent), P50(), P99(), LagP99(),
                 NumValid(), windows.size(),
                 Met(p99_limit_us) ? " met" : "", bad > 0 ? " FAILED" : "");
  }
};

struct Timings {
  std::vector<double> parse_us, registry_us, engine_us, assign_row_us;
};

/// Replays request ids [first, first + count) in-process through a fresh
/// registry over the base bundles, timing each layer's public call, and
/// checks every registry response against `reference`.
Timings Replay(const ServeConfig& config, const Traffic& traffic,
               uint64_t first, uint64_t count,
               const std::function<std::string(uint64_t, const Request&)>&
                   reference,
               Outcome* out, double* hit_ratio) {
  serve::Registry registry({}, kCacheEntries);
  for (int m = 0; m < kNumModels; ++m) {
    MustOk(registry.AddModel(kModelNames[m], BasePath(config.dir, m)),
           "register replay model");
  }
  std::shared_ptr<const serve::Engine> engines[kNumModels];
  for (int m = 0; m < kNumModels; ++m) engines[m] = registry.Lookup(kModelNames[m]);
  core::LossKernel kernel;
  Timings t;
  uint64_t mismatched = 0;
  std::string line;
  auto micros = [](Clock::time_point a) {
    return std::chrono::duration<double, std::micro>(Clock::now() - a).count();
  };
  for (uint64_t id = first; id < first + count; ++id) {
    const Request r = traffic.Decode(id);
    line.clear();
    traffic.Line(r, &line);
    auto start = Clock::now();
    util::Result<util::JsonValue> parsed = util::ParseJson(line);
    t.parse_us.push_back(micros(start));
    start = Clock::now();
    const std::vector<std::string> response =
        registry.HandleBatch(std::span<const std::string>(&line, 1), &kernel);
    t.registry_us.push_back(micros(start));
    if (response.size() != 1 || response[0] != reference(id, r)) ++mismatched;
    if (!parsed.ok()) continue;
    const util::JsonValue* request = &*parsed;
    start = Clock::now();
    engines[r.model]->HandleRequests(
        std::span<const util::JsonValue* const>(&request, 1), &kernel);
    t.engine_us.push_back(micros(start));
    if (r.kind == Request::kAssign || r.kind == Request::kDuplicates) {
      const std::vector<std::string> fields = traffic.Row(r.index);
      start = Clock::now();
      engines[r.model]->AssignBatch(
          std::span<const std::vector<std::string>>(&fields, 1), &kernel);
      t.assign_row_us.push_back(micros(start));
    }
  }
  out->Tally(count, mismatched, "replay: registry response differs");
  const double hits = static_cast<double>(registry.CacheHits());
  const double misses = static_cast<double>(registry.CacheMisses());
  *hit_ratio = hits + misses > 0 ? hits / (hits + misses) : 0.0;
  return t;
}

}  // namespace

double SetupServe(const Args& args) {
  const std::string dir = args.Require("dir");
  const uint64_t seed = args.RequireInt("seed");
  const bool refit = args.Require("workload") == "serve-refit";
  const auto start = Clock::now();
  datagen::DblpOptions options;
  options.seed = seed;
  options.target_tuples = args.RequireInt("tuples");
  MustOk(relation::WriteCsv(datagen::GenerateDblp(options), dir + "/fit.csv"),
         "write fit CSV");
  const relation::Relation rel =
      Must(relation::ReadCsv(dir + "/fit.csv"), "read fit CSV");
  for (int m = 0; m < kNumModels; ++m) {
    model::FitOptions fit;  // limbo-tool fit --schemes --k=<k>
    fit.k = kModelK[m];
    fit.threads = kThreads;
    fit.mine_schemes = true;
    MustOk(model::Save(Must(model::FitModel(rel, fit), "fit"),
                       BundlePath(dir, m)),
           "save bundle");
  }

  // The request-row pool, in the rank order the Zipf draw uses. serve:
  // fitted and held-out rows alternate down the ranks until the fitted
  // ones run out; serve-refit: held-out rows only, each served once.
  std::unordered_set<std::string> seen;
  std::vector<std::vector<std::string>> fitted;
  if (!refit) {
    for (relation::TupleId t = 0; t < rel.NumTuples(); ++t) {
      std::vector<std::string> fields = RowFields(rel, t);
      if (seen.insert(CsvLine(fields)).second) fitted.push_back(std::move(fields));
    }
  }
  const size_t pool_rows = args.RequireInt("pool-rows");
  const size_t held_out_rows =
      pool_rows > fitted.size() ? pool_rows - fitted.size() : 0;
  const std::vector<std::vector<std::string>> held_out = HeldOutRows(
      rel.dictionary(), seed * 1000003 + (refit ? 2 : 1), held_out_rows, &seen);
  std::string csv = CsvLine(rel.schema().Names()) + "\n";
  for (size_t i = 0, f = 0, h = 0; f < fitted.size() || h < held_out.size();
       ++i) {
    const bool take_fitted =
        f < fitted.size() && (h >= held_out.size() || i % 2 == 0);
    csv += CsvLine(take_fitted ? fitted[f++] : held_out[h++]) + "\n";
  }
  FILE* file = std::fopen((dir + "/pool.csv").c_str(), "wb");
  if (file == nullptr || std::fwrite(csv.data(), 1, csv.size(), file) != csv.size() ||
      std::fclose(file) != 0) {
    std::fprintf(stderr, "limbo-perf: could not write the request pool\n");
    std::exit(1);
  }
  return SecondsSince(start);
}

Outcome MeasureServe(const Args& args, bool refit, bool trace) {
  obs::SetEnabled(false);
  const ServeConfig config(args);
  Outcome out;
  // The writer overwrites the registered paths; keep the set-up bundles.
  model::ModelBundle base[kNumModels];
  for (int m = 0; m < kNumModels; ++m) {
    base[m] = Must(model::Load(BundlePath(config.dir, m)), "load bundle");
    MustOk(model::Save(base[m], BasePath(config.dir, m)), "save base copy");
  }
  const Traffic traffic(args, refit, base[0]);
  std::unique_ptr<ReferenceTable> references;
  if (!refit) {
    references = std::make_unique<ReferenceTable>(config.dir, traffic,
                                                  args.RequireInt("seed"));
  }
  // peak_rss_mb is what serving adds to this process: the server with its
  // bundles and cache, the writer's refits and the load, on top of the
  // inputs and references the benchmark itself holds.
  const double rss_before_mib = ResetPeakRss();
  auto harness = std::make_unique<ServerHarness>(config.dir, config.workers);

  std::unique_ptr<RefitWriter> writer;
  if (refit) {
    const double longest_window = std::max(kWarmupS, config.window_s);
    writer = std::make_unique<RefitWriter>(config, traffic, harness->port(),
                                           kDrainSeconds + longest_window);
  }

  const RequestLine request_line = [&](uint64_t id, std::string* line) {
    traffic.Line(traffic.Decode(id), line);
  };
  const ResponseCheck check = [&](uint64_t id, Clock::time_point due,
                                  std::string_view response) {
    if (!refit) return response == references->Get(traffic.Decode(id));
    writer->Enqueue({id, due, Clock::now(), std::string(response)});
    return true;  // the writer thread checks it
  };

  OpenLoopClient client =
      Must(OpenLoopClient::Connect(harness->port(), kConnections),
           "connect load");
  uint64_t next_id = 0;
  bool cycling = false;  // serve-refit: one writer cycle per window
  auto window = [&](Phase* p, const char* name, double rate,
                    double seconds) {
    if (writer && cycling) writer->Trigger();
    p->windows.push_back(client.RunStep(rate, seconds, next_id, request_line,
                                        check, kLagBudgetUs, kDrainSeconds));
    const StepResult& s = p->windows.back();
    next_id += s.sent;
    out.Tally(s.sent, s.failed + s.dropped,
              std::string("serve: failed or dropped requests in ") + name);
  };
  auto phase = [&](const char* name, double rate, double seconds,
                   size_t windows) {
    Phase p;
    for (size_t w = 0; w < windows; ++w) window(&p, name, rate, seconds / windows);
    p.Log(name, kP99LimitUs);
    return p;
  };

  // Highest step of the fixed geometric ladder whose probe meets the p99
  // limit without a growing backlog, by bisection over the ladder index.
  auto max_qps = [&](double seconds) {
    int lo = -1;
    int hi = kLadderSteps;
    const double probe_s = seconds / std::ceil(std::log2(hi + 1.0));
    while (hi - lo > 1) {
      const int mid = (lo + hi) / 2;
      const double rate =
          config.ladder_min * std::pow(kLadderRatio, mid);
      const Phase p = phase("probe", rate, probe_s, 11);
      (p.Met(kP99LimitUs) ? lo : hi) = mid;
    }
    return lo < 0 ? 0.0
                  : config.ladder_min * std::pow(kLadderRatio, lo);
  };

  const double budget = config.seconds;
  phase("warmup", config.light, kWarmupS, 1);
  // The fixed rates, their windows alternating so that both sample the
  // shared host over the whole run; on serve-refit with one writer cycle
  // per window. After each pair, serve times a slice of the lane answers.
  cycling = true;
  Phase light, heavy;
  const size_t slice =
      references ? (references->NumRetimes() + config.windows - 1) / config.windows
                 : 0;
  for (size_t w = 0; w < config.windows; ++w) {
    window(&light, "light", config.light, config.window_s);
    window(&heavy, "heavy", config.heavy, config.window_s);
    if (references) references->Retime(slice);
  }
  cycling = false;
  light.Log("light", kP99LimitUs);
  heavy.Log("heavy", kP99LimitUs);
  if (writer) writer->WaitIdle();

  if (!trace) {
    // serve's job: one lane answering one request of the traffic mix.
    if (!refit) out.Set("job_s", references->MixAnswerSeconds());
    out.Set("p50_us.light", light.P50());
    out.Set("p50_us.heavy", heavy.P50());
    out.Set("peak_rss_mb", PeakRssMib() - rss_before_mib);
  } else {
    // The figures a shared host cannot repeat within an end-to-end
    // bound: the tail percentiles and the open-loop ceiling.
    out.Set("serve.p90_us.light", light.P90());
    out.Set("serve.p90_us.heavy", heavy.P90());
    out.Set("serve.p99_us.light", light.P99());
    out.Set("serve.p99_us.heavy", heavy.P99());
    out.Set("serve.max_qps", max_qps(0.3 * budget));

    obs::SetEnabled(true);
    obs::ResetCounters();
    obs::ResetTrace();
    const uint64_t batches0 = harness->server().batches();
    const uint64_t batched0 = harness->server().batched_requests();
    const uint64_t traced_first = next_id;
    cycling = true;
    const Phase traced = phase("traced", config.heavy,
                               config.windows * config.window_s,
                               config.windows);
    cycling = false;
    if (writer) writer->WaitIdle();
    const uint64_t traced_count = next_id - traced_first;
    const double batches =
        static_cast<double>(harness->server().batches() - batches0);
    const double batched =
        static_cast<double>(harness->server().batched_requests() - batched0);

    double hit_ratio = 0.0;
    core::LossKernel ref_kernel;
    std::unique_ptr<serve::Engine> base_engines[kNumModels];
    if (refit) {
      for (int m = 0; m < kNumModels; ++m) {
        base_engines[m] = std::make_unique<serve::Engine>(
            Must(serve::Engine::Open(BasePath(config.dir, m)), "open engine"));
      }
    }
    const Timings t = Replay(
        config, traffic, traced_first, traced_count,
        [&](uint64_t id, const Request& r) -> std::string {
          if (!refit) return references->Get(r);
          return base_engines[r.model]->HandleLine(traffic.Line(id),
                                                   &ref_kernel);
        },
        &out, &hit_ratio);
    const double registry_p50 = Percentile(t.registry_us, 0.5);
    out.Set("serve.parse_us", Percentile(t.parse_us, 0.5));
    out.Set("serve.registry_us", registry_p50);
    out.Set("serve.engine_us", Percentile(t.engine_us, 0.5));
    out.Set("serve.assign_row_us", Percentile(t.assign_row_us, 0.5));
    out.Set("serve.cache.hit_ratio", hit_ratio);
    out.Set("serve.mean_batch", batches > 0 ? batched / batches : 0.0);
    out.Set("serve.transport_us", traced.P50() - registry_p50);
    out.Set("serve.sheds", static_cast<double>(harness->server().sheds()));
    out.Set("serve.generator_lag_us", traced.LagP99());
    out.Set("trace_overhead_frac", (traced.P50() - heavy.P50()) / heavy.P50());

    // Bundle save/load as the serve set-up and reloads pay it.
    std::vector<double> save_s, load_s;
    for (int i = 0; i < 3; ++i) {
      auto start = Clock::now();
      for (int m = 0; m < kNumModels; ++m) {
        Must(model::Load(BasePath(config.dir, m)), "load bundle");
      }
      load_s.push_back(SecondsSince(start));
      start = Clock::now();
      for (int m = 0; m < kNumModels; ++m) {
        MustOk(model::Save(base[m], config.dir + "/resave.limbo"), "save");
      }
      save_s.push_back(SecondsSince(start));
    }
    out.Set("model.load_s", Median(load_s));
    out.Set("model.save_s", Median(save_s));
    out.Set("model.bundle_bytes",
            static_cast<double>(FileBytes(BasePath(config.dir, 0)) +
                                FileBytes(BasePath(config.dir, 1))));
  }
  out.Check(harness->server().sheds() == 0, "serve: requests were shed");
  harness.reset();

  if (writer) {
    writer->WaitIdle();
    const std::vector<Cycle> cycles = writer->Cycles();
    const uint64_t mismatched = writer->mismatched();
    writer.reset();
    std::vector<double> refit_s, save_s, reload_s, total_s;
    for (const Cycle& c : cycles) {
      out.Check(c.ok, "serve-refit: refit/save/reload cycle failed");
      refit_s.push_back(c.refit_s);
      save_s.push_back(c.save_s);
      reload_s.push_back(c.reload_s);
      total_s.push_back(c.total_s);
    }
    out.Check(!cycles.empty(), "serve-refit: no refit cycle ran");
    if (trace) {
      out.Set("model.refit_s", Median(refit_s));
      out.Set("model.save_s", Median(save_s));
      out.Set("serve.reload_s", Median(reload_s));
    } else {
      out.Set("job_s", Median(total_s));
    }
    out.Tally(0, mismatched,
              "serve-refit: response differs from every live model version");
  }
  return out;
}

}  // namespace limbo::perfbench
