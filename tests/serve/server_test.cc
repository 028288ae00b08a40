// In-process TCP integration tests for serve::Server: the connection-
// handling regressions (SIGPIPE, EINTR, final-line flush, shed), model
// routing over the wire, and hot reload under concurrent load.

#include "serve/server.h"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <fstream>
#include <memory>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "core/prob.h"
#include "gtest/gtest.h"
#include "model/fit.h"
#include "model/model_bundle.h"
#include "relation/relation.h"
#include "serve/registry.h"
#include "util/json.h"

namespace limbo::serve {
namespace {

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

/// The assign query for `row`, routed to `model` (the default model when
/// `model` is empty).
std::string AssignQuery(const std::vector<std::string>& row,
                        const std::string& model = "") {
  std::string q = "{\"op\":\"assign\",";
  if (!model.empty()) {
    q += "\"model\":";
    util::AppendJsonString(model, &q);
    q.push_back(',');
  }
  q += "\"row\":[";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) q.push_back(',');
    util::AppendJsonString(row[i], &q);
  }
  q += "]}";
  return q;
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

std::string SaveBundle(size_t k, const std::string& tag) {
  model::FitOptions options;
  options.k = k;
  auto bundle = model::FitModel(TestRelation(), options);
  EXPECT_TRUE(bundle.ok()) << bundle.status().ToString();
  const std::string path = testing::TempDir() + "server_test_" + tag + "_" +
                           std::to_string(getpid()) + ".limbo";
  EXPECT_TRUE(model::Save(*bundle, path).ok());
  return path;
}

/// Minimal blocking loopback client. Sends use MSG_NOSIGNAL so a test
/// never dies of SIGPIPE itself; reads are newline-framed with a
/// deadline so a server bug fails the test instead of hanging it.
class TestClient {
 public:
  ~TestClient() { Close(); }

  bool Connect(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    struct sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(port));
    int rc;
    do {
      rc = ::connect(fd_, reinterpret_cast<struct sockaddr*>(&addr),
                     sizeof(addr));
    } while (rc < 0 && errno == EINTR);
    if (rc < 0) {
      Close();
      return false;
    }
    return true;
  }

  bool Send(const std::string& data) {
    size_t sent = 0;
    while (sent < data.size()) {
      const ssize_t w =
          ::send(fd_, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
      if (w < 0 && errno == EINTR) continue;
      if (w <= 0) return false;
      sent += static_cast<size_t>(w);
    }
    return true;
  }

  bool SendLine(const std::string& line) { return Send(line + "\n"); }

  /// One '\n'-terminated response, newline stripped. False on error,
  /// close, or a 5s deadline (server hung).
  bool ReadLine(std::string* line) {
    line->clear();
    for (int spins = 0; spins < 500; ++spins) {
      const size_t newline = buffered_.find('\n');
      if (newline != std::string::npos) {
        line->assign(buffered_, 0, newline);
        buffered_.erase(0, newline + 1);
        return true;
      }
      struct pollfd pfd = {fd_, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, 10);
      if (ready < 0 && errno != EINTR) return false;
      if (ready <= 0) continue;
      char chunk[4096];
      ssize_t n;
      do {
        n = ::recv(fd_, chunk, sizeof(chunk), 0);
      } while (n < 0 && errno == EINTR);
      if (n == 0) {
        // Orderly close: a final unterminated payload counts as a line.
        if (buffered_.empty()) return false;
        line->swap(buffered_);
        return true;
      }
      if (n < 0) return false;
      buffered_.append(chunk, static_cast<size_t>(n));
    }
    return false;  // deadline
  }

  void ShutdownWrite() { ::shutdown(fd_, SHUT_WR); }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
  std::string buffered_;
};

/// Fixture: a two-model registry (wide k=3, narrow k=2) behind a live
/// server whose acceptor runs on a fixture-owned thread.
class ServerTest : public ::testing::Test {
 protected:
  void StartServer(size_t workers = 2, size_t max_pending = 128,
                   size_t batch_max = 16, size_t cache_entries = 0) {
    signal(SIGPIPE, SIG_IGN);  // the daemon does this too
    wide_path_ = SaveBundle(3, "wide");
    narrow_path_ = SaveBundle(2, "narrow");
    registry_ = std::make_unique<Registry>(EngineOptions{}, cache_entries);
    ASSERT_TRUE(registry_->AddModel("wide", wide_path_).ok());
    ASSERT_TRUE(registry_->AddModel("narrow", narrow_path_).ok());
    ServerOptions options;
    options.port = 0;
    options.workers = workers;
    options.max_pending = max_pending;
    options.poll_ms = 10;
    options.batch_max = batch_max;
    auto server = Server::Start(registry_.get(), options);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = std::move(server).value();
    stop_.store(0);
    reload_.store(0);
    acceptor_ = std::thread(
        [this] { server_->Run(&stop_, &reload_); });
  }

  void TearDown() override {
    if (server_ != nullptr) {
      stop_.store(1);
      acceptor_.join();
      server_.reset();
    }
    if (!wide_path_.empty()) ::unlink(wide_path_.c_str());
    if (!narrow_path_.empty()) ::unlink(narrow_path_.c_str());
  }

  int port() const { return server_->port(); }

  std::unique_ptr<Registry> registry_;
  std::unique_ptr<Server> server_;
  std::thread acceptor_;
  std::atomic<int> stop_{0};
  std::atomic<int> reload_{0};
  std::string wide_path_;
  std::string narrow_path_;
};

/// The expected response for a query, computed straight through the
/// registry (the TCP path must be byte-identical to it).
std::string Expected(Registry* registry, const std::string& query) {
  core::LossKernel kernel;
  return registry->HandleLine(query, &kernel);
}

TEST_F(ServerTest, RoutesQueriesByModelOverTcp) {
  StartServer();
  TestClient client;
  ASSERT_TRUE(client.Connect(port()));
  std::string response;

  ASSERT_TRUE(client.SendLine("{\"op\":\"info\",\"model\":\"wide\"}"));
  ASSERT_TRUE(client.ReadLine(&response));
  EXPECT_NE(response.find("\"clusters\":3"), std::string::npos) << response;

  ASSERT_TRUE(client.SendLine("{\"op\":\"info\",\"model\":\"narrow\"}"));
  ASSERT_TRUE(client.ReadLine(&response));
  EXPECT_NE(response.find("\"clusters\":2"), std::string::npos) << response;

  // Default model (first registered) answers when "model" is omitted.
  ASSERT_TRUE(client.SendLine("{\"op\":\"info\"}"));
  ASSERT_TRUE(client.ReadLine(&response));
  EXPECT_NE(response.find("\"clusters\":3"), std::string::npos) << response;

  ASSERT_TRUE(client.SendLine("{\"op\":\"info\",\"model\":\"missing\"}"));
  ASSERT_TRUE(client.ReadLine(&response));
  EXPECT_NE(response.find("\"code\":\"NotFound\""), std::string::npos)
      << response;

  // The connection survived the error and still answers.
  ASSERT_TRUE(client.SendLine("{\"op\":\"models\"}"));
  ASSERT_TRUE(client.ReadLine(&response));
  EXPECT_NE(response.find("\"default\":\"wide\""), std::string::npos)
      << response;
}

TEST_F(ServerTest, TcpMatchesRegistryByteForByte) {
  StartServer();
  const std::vector<std::string> queries = {
      "{\"op\":\"assign\",\"row\":[\"Boston\",\"MA\",\"02134\",\"alice\"]}",
      "{\"op\":\"assign\",\"model\":\"narrow\","
      "\"row\":[\"Miami\",\"FL\",\"33101\",\"dave\"]}",
      "{\"op\":\"info\",\"model\":\"narrow\"}",
      "{\"op\":\"attrs\"}",
      "not json at all",
  };
  TestClient client;
  ASSERT_TRUE(client.Connect(port()));
  for (const std::string& query : queries) {
    std::string response;
    ASSERT_TRUE(client.SendLine(query));
    ASSERT_TRUE(client.ReadLine(&response));
    EXPECT_EQ(response, Expected(registry_.get(), query)) << query;
  }
}

// Regression (satellite 1): a client that vanishes between request and
// response must not bring the daemon down with SIGPIPE. The response
// send hits a dead peer; with MSG_NOSIGNAL that is an EPIPE on one
// connection, and the server keeps serving everyone else.
TEST_F(ServerTest, AbruptClientDisconnectDoesNotKillServer) {
  StartServer(/*workers=*/2);
  for (int round = 0; round < 20; ++round) {
    TestClient doomed;
    ASSERT_TRUE(doomed.Connect(port()));
    // Large-ish op so the response spans several sends; close without
    // reading any of it.
    ASSERT_TRUE(doomed.SendLine("{\"op\":\"fds\",\"limit\":50}"));
    doomed.Close();
  }
  // The server is still alive and correct.
  TestClient checker;
  ASSERT_TRUE(checker.Connect(port()));
  std::string response;
  ASSERT_TRUE(checker.SendLine("{\"op\":\"info\"}"));
  ASSERT_TRUE(checker.ReadLine(&response));
  EXPECT_NE(response.find("\"ok\":true"), std::string::npos) << response;
}

// Regression (satellite 4): the final query of a connection that shuts
// down its write side without a trailing newline is still answered.
TEST_F(ServerTest, FinalLineWithoutNewlineIsAnswered) {
  StartServer();
  TestClient client;
  ASSERT_TRUE(client.Connect(port()));
  std::string response;
  ASSERT_TRUE(client.SendLine("{\"op\":\"info\"}"));
  ASSERT_TRUE(client.ReadLine(&response));
  ASSERT_TRUE(client.Send("{\"op\":\"info\",\"model\":\"narrow\"}"));
  client.ShutdownWrite();
  ASSERT_TRUE(client.ReadLine(&response));
  EXPECT_NE(response.find("\"clusters\":2"), std::string::npos) << response;
}

// A client that never sends '\n' must not grow the server's read buffer
// without bound. The requests before the over-long line are answered in
// order, then one line_too_long error, then the connection closes; the
// same holds when the over-long line is newline-terminated, and anything
// sent after it goes unanswered.
TEST_F(ServerTest, OverlongLineIsAnsweredWithTypedErrorAndClose) {
  StartServer();
  const std::string info = "{\"op\":\"info\"}";
  const std::string want = Expected(registry_.get(), info);
  const std::string overlong(Server::kMaxLineBytes + 1, 'x');
  for (const std::string& tail : {overlong, overlong + "\n" + info + "\n"}) {
    TestClient client;
    ASSERT_TRUE(client.Connect(port()));
    ASSERT_TRUE(client.Send(info + "\n" + info + "\n" + tail));
    std::string response;
    for (int i = 0; i < 2; ++i) {
      ASSERT_TRUE(client.ReadLine(&response));
      EXPECT_EQ(response, want);
    }
    ASSERT_TRUE(client.ReadLine(&response));
    EXPECT_NE(response.find("\"code\":\"line_too_long\""), std::string::npos)
        << response.substr(0, 200);
    EXPECT_FALSE(client.ReadLine(&response)) << "connection left open";
  }
  // A line of exactly the cap is still a request.
  TestClient at_cap;
  ASSERT_TRUE(at_cap.Connect(port()));
  const std::string padding(Server::kMaxLineBytes - info.size(), ' ');
  ASSERT_TRUE(at_cap.SendLine(padding + info));
  std::string response;
  ASSERT_TRUE(at_cap.ReadLine(&response));
  EXPECT_EQ(response, want);
}

// A client that pipelines far faster than it reads must not grow the
// server's per-connection queue without bound. While the client reads
// nothing, the lanes block on its full socket, the queue reaches
// kMaxQueuedLines and the reactor stops reading the connection; once the
// client reads, the lanes drain the queue and reading resumes. Every
// line is answered exactly once, in order.
TEST_F(ServerTest, PipelinedFloodIsBackpressuredAndAnsweredInOrder) {
  StartServer(/*workers=*/2);
  const std::vector<std::string> queries = {
      "{\"op\":\"info\",\"model\":\"wide\"}",
      "{\"op\":\"info\",\"model\":\"narrow\"}",
      "not json at all",
  };
  std::vector<std::string> want;
  for (const std::string& query : queries) {
    want.push_back(Expected(registry_.get(), query));
  }
  constexpr size_t kLines = 100000;
  std::string flood;
  for (size_t i = 0; i < kLines; ++i) {
    flood += queries[i % queries.size()];
    flood.push_back('\n');
  }
  TestClient client;
  ASSERT_TRUE(client.Connect(port()));
  std::atomic<bool> sent{false};
  std::atomic<bool> send_ok{false};
  std::thread writer([&] {
    send_ok.store(client.Send(flood));
    sent.store(true);
  });
  // Read nothing until the queue is full (or, on a host whose socket
  // buffers swallow every response, until the whole flood is sent).
  for (int spins = 0; spins < 10000 && !sent.load() &&
                      server_->peak_queued_lines() < Server::kMaxQueuedLines;
       ++spins) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  size_t answered = 0;
  std::string response;
  for (; answered < kLines; ++answered) {
    if (!client.ReadLine(&response)) break;
    if (response != want[answered % want.size()]) break;
  }
  writer.join();
  EXPECT_TRUE(send_ok.load());
  EXPECT_EQ(answered, kLines) << "wrong or missing response";
  // At most one 4 KiB read of 2-byte lines past the cap.
  EXPECT_LE(server_->peak_queued_lines(), Server::kMaxQueuedLines + 2049);
  EXPECT_GE(server_->peak_queued_lines(), Server::kMaxQueuedLines);
}

// Regression (satellite 2): a signal storm against the serving process
// must not drop connections or corrupt responses — every blocked socket
// call gets EINTR-retried. The handler is installed without SA_RESTART
// (like the daemon's) so the syscalls really do see EINTR.
TEST_F(ServerTest, SurvivesSignalStorm) {
  struct sigaction sa = {};
  sa.sa_handler = [](int) {};
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // deliberately no SA_RESTART
  ASSERT_EQ(::sigaction(SIGUSR1, &sa, nullptr), 0);

  StartServer(/*workers=*/2);
  std::atomic<bool> storming{true};
  std::thread storm([&storming] {
    while (storming.load()) {
      ::kill(getpid(), SIGUSR1);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  const std::string query = "{\"op\":\"fds\",\"limit\":20}";
  const std::string want = Expected(registry_.get(), query);
  TestClient client;
  ASSERT_TRUE(client.Connect(port()));
  for (int i = 0; i < 200; ++i) {
    std::string response;
    ASSERT_TRUE(client.SendLine(query)) << "send failed at " << i;
    ASSERT_TRUE(client.ReadLine(&response)) << "read failed at " << i;
    ASSERT_EQ(response, want) << "corrupted at " << i;
  }
  storming.store(false);
  storm.join();
}

// Admission control: with one lane occupied and a pending queue of one,
// a third concurrent connection is shed immediately with "overloaded"
// rather than waiting behind the slow client.
TEST_F(ServerTest, ShedsWhenPendingQueueFull) {
  StartServer(/*workers=*/1, /*max_pending=*/1);

  // Occupy the single lane: connect and get an answer, keep it open.
  TestClient busy;
  ASSERT_TRUE(busy.Connect(port()));
  std::string response;
  ASSERT_TRUE(busy.SendLine("{\"op\":\"info\"}"));
  ASSERT_TRUE(busy.ReadLine(&response));

  // Fill the pending queue (never served while `busy` holds the lane).
  TestClient waiting;
  ASSERT_TRUE(waiting.Connect(port()));
  // Give the acceptor a beat to queue it.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // Overflow: must be shed with the documented error, not queued.
  bool shed_seen = false;
  for (int attempt = 0; attempt < 50 && !shed_seen; ++attempt) {
    TestClient overflow;
    ASSERT_TRUE(overflow.Connect(port()));
    std::string reply;
    if (overflow.ReadLine(&reply) &&
        reply.find("\"code\":\"overloaded\"") != std::string::npos) {
      shed_seen = true;
    }
  }
  EXPECT_TRUE(shed_seen);
  EXPECT_GE(server_->sheds(), 1u);

  // The busy connection is unaffected by the shedding.
  ASSERT_TRUE(busy.SendLine("{\"op\":\"info\"}"));
  ASSERT_TRUE(busy.ReadLine(&response));
  EXPECT_NE(response.find("\"ok\":true"), std::string::npos);
}

/// One serving configuration of the reload-under-load gate: the server's
/// cross-connection batch cap (1 = unbatched) and the registry's response
/// cache size (0 = off).
struct LoadArm {
  size_t batch_max;
  size_t cache_entries;
};

void PrintTo(const LoadArm& arm, std::ostream* os) {
  *os << "batch" << arm.batch_max << "_cache" << arm.cache_entries;
}

class ServerLoadTest : public ServerTest,
                       public ::testing::WithParamInterface<LoadArm> {};

// The tentpole guarantee: hot reload under live concurrent traffic
// drops nothing and never serves a half-loaded model, unbatched, batched
// and with the response cache on. 32 clients cycle every row of
// TestRows() through both models while 20 blue/green reloads fire;
// every response must be byte-identical to the registry's single-line
// answer (the bundle files never change, so there is one valid state).
TEST_P(ServerLoadTest, ReloadUnderLoadDropsNothing) {
  constexpr size_t kClients = 32;
  constexpr size_t kRequestsPerClient = 48;
  StartServer(/*workers=*/4, /*max_pending=*/128, GetParam().batch_max,
              GetParam().cache_entries);
  std::vector<std::string> queries;
  for (const char* model : {"wide", "narrow"}) {
    for (const auto& row : TestRows()) {
      queries.push_back(AssignQuery(row, model));
    }
  }
  std::vector<std::string> want;
  for (const std::string& query : queries) {
    want.push_back(Expected(registry_.get(), query));
  }

  // Each client keeps sending until the last reload has been answered,
  // so the reloads land amid the traffic.
  std::atomic<bool> reloading{true};
  std::atomic<bool> failed{false};
  std::atomic<uint64_t> answered{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      TestClient client;
      if (!client.Connect(port())) {
        failed.store(true);
        return;
      }
      for (size_t i = 0;
           (i < kRequestsPerClient || reloading.load()) && !failed.load();
           ++i) {
        const size_t q = (c + i) % queries.size();  // staggered cursor
        std::string response;
        if (!client.SendLine(queries[q]) || !client.ReadLine(&response) ||
            response != want[q]) {
          failed.store(true);
          return;
        }
        answered.fetch_add(1);
      }
    });
  }

  // 20 blue/green reloads through the admin protocol, mid-traffic.
  TestClient admin;
  const bool admin_connected = admin.Connect(port());
  uint64_t reloads_ok = 0;
  for (int r = 0; admin_connected && r < 20; ++r) {
    std::string response;
    if (!admin.SendLine("{\"op\":\"reload\"}") ||
        !admin.ReadLine(&response)) {
      break;
    }
    if (response.find("\"ok\":true") != std::string::npos) ++reloads_ok;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  reloading.store(false);
  for (std::thread& client : clients) client.join();

  ASSERT_TRUE(admin_connected);
  EXPECT_FALSE(failed.load()) << "a response was dropped or mixed";
  EXPECT_GE(answered.load(), kClients * kRequestsPerClient);
  EXPECT_EQ(reloads_ok, 20u);
  // 20 reloads x 2 models, versions end at 21.
  for (const ModelInfo& info : registry_->ListModels()) {
    EXPECT_EQ(info.version, 21u) << info.name;
  }
  // Two quiet passes over the queries: the second is answered from the
  // cache when it is on, and must still carry the same bytes.
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t q = 0; q < queries.size(); ++q) {
      std::string response;
      ASSERT_TRUE(admin.SendLine(queries[q]));
      ASSERT_TRUE(admin.ReadLine(&response));
      EXPECT_EQ(response, want[q]) << queries[q];
    }
  }
  EXPECT_EQ(registry_->CacheHits() > 0, GetParam().cache_entries > 0);
}

// The three serving configurations: unbatched, batched, and batched with
// the response cache.
INSTANTIATE_TEST_SUITE_P(BatchCache, ServerLoadTest,
                         ::testing::Values(LoadArm{1, 0}, LoadArm{16, 0},
                                           LoadArm{16, 8192}));

// SIGHUP semantics: the reload flag handed to Run triggers ReloadAll
// without dropping the connection that is mid-conversation.
TEST_F(ServerTest, ReloadFlagTriggersReloadAll) {
  StartServer();
  TestClient client;
  ASSERT_TRUE(client.Connect(port()));
  std::string response;
  ASSERT_TRUE(client.SendLine("{\"op\":\"info\"}"));
  ASSERT_TRUE(client.ReadLine(&response));

  reload_.store(1);  // what the SIGHUP handler does
  // The acceptor clears the flag before it starts reloading (so a HUP
  // arriving mid-reload queues another pass), so poll the versions.
  bool reloaded = false;
  for (int spins = 0; spins < 500 && !reloaded; ++spins) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    reloaded = true;
    for (const ModelInfo& info : registry_->ListModels()) {
      reloaded = reloaded && info.version == 2u;
    }
  }
  EXPECT_TRUE(reloaded);
  EXPECT_EQ(reload_.load(), 0);

  // Same connection, still fine, now served by the v2 engines.
  ASSERT_TRUE(client.SendLine("{\"op\":\"info\",\"model\":\"narrow\"}"));
  ASSERT_TRUE(client.ReadLine(&response));
  EXPECT_NE(response.find("\"clusters\":2"), std::string::npos) << response;
}

// Responses over TCP are bit-identical at every worker count (each lane
// owns its LossKernel; assignment is a pure function of row and model).
TEST_F(ServerTest, BitIdenticalAcrossWorkerCounts) {
  StartServer(/*workers=*/4);
  std::vector<std::string> queries;
  for (const auto& row : TestRows()) queries.push_back(AssignQuery(row));
  std::vector<std::string> want;
  want.reserve(queries.size());
  for (const std::string& query : queries) {
    want.push_back(Expected(registry_.get(), query));
  }

  // 4 concurrent connections, all sending the full query set.
  std::atomic<bool> failed{false};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&] {
      TestClient client;
      if (!client.Connect(port())) {
        failed.store(true);
        return;
      }
      for (size_t i = 0; i < queries.size(); ++i) {
        std::string response;
        if (!client.SendLine(queries[i]) || !client.ReadLine(&response) ||
            response != want[i]) {
          failed.store(true);
          return;
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  EXPECT_FALSE(failed.load());
}

// Cross-request batching must never change bytes: clients pipeline the
// whole query set in a single send (so worker lanes really do drain
// multi-line batches) and every response must match the per-line
// registry path, in order. Exercised at 1 and 4 workers.
class BatchedServerTest : public ServerTest {
 protected:
  void RunPipelinedBatchTest(size_t workers) {
    StartServer(workers, /*max_pending=*/128, /*batch_max=*/8);
    std::vector<std::string> queries;
    for (const auto& row : TestRows()) queries.push_back(AssignQuery(row));
    queries.push_back(
        "{\"op\":\"duplicates\",\"model\":\"narrow\","
        "\"row\":[\"Boston\",\"MA\",\"02134\",\"alice\"]}");
    queries.push_back("{\"op\":\"info\",\"model\":\"narrow\"}");
    queries.push_back("not json at all");
    std::vector<std::string> want;
    want.reserve(queries.size());
    for (const std::string& query : queries) {
      want.push_back(Expected(registry_.get(), query));
    }
    std::string pipelined;
    for (const std::string& query : queries) {
      pipelined += query;
      pipelined.push_back('\n');
    }

    std::atomic<bool> failed{false};
    std::vector<std::thread> clients;
    for (int c = 0; c < 4; ++c) {
      clients.emplace_back([&] {
        TestClient client;
        if (!client.Connect(port()) || !client.Send(pipelined)) {
          failed.store(true);
          return;
        }
        for (size_t i = 0; i < queries.size(); ++i) {
          std::string response;
          if (!client.ReadLine(&response) || response != want[i]) {
            failed.store(true);
            return;
          }
        }
      });
    }
    for (std::thread& client : clients) client.join();
    EXPECT_FALSE(failed.load());
    // The pipelined burst actually exercised multi-request batches.
    EXPECT_GT(server_->batched_requests(), server_->batches());
  }
};

TEST_F(BatchedServerTest, PipelinedBatchesMatchSinglePathOneWorker) {
  RunPipelinedBatchTest(1);
}

TEST_F(BatchedServerTest, PipelinedBatchesMatchSinglePathFourWorkers) {
  RunPipelinedBatchTest(4);
}

// The cache-invalidation guarantee end to end: fill the response cache,
// hot-reload to a bundle with different assignments, and assert that no
// query sent after the reload acknowledgment is ever answered from the
// stale engine — under live concurrent load the whole time.
TEST_F(ServerTest, CacheInvalidatedOnReloadUnderConcurrentLoad) {
  StartServer(/*workers=*/4, /*max_pending=*/128, /*batch_max=*/8,
              /*cache_entries=*/256);
  const std::string info_query = "{\"op\":\"info\",\"model\":\"wide\"}";
  const std::string assign_query =
      "{\"op\":\"assign\",\"model\":\"wide\","
      "\"row\":[\"Denver\",\"CO\",\"80201\",\"bob\"]}";
  // Pre-reload expectations (also the cache fill), and post-reload ones:
  // after the wide file is overwritten with the narrow bundle, "wide"
  // must answer with the narrow engine's bytes.
  const std::string pre_info = Expected(registry_.get(), info_query);
  const std::string pre_assign = Expected(registry_.get(), assign_query);
  const std::string post_info = Expected(
      registry_.get(), "{\"op\":\"info\",\"model\":\"narrow\"}");
  const std::string post_assign = Expected(
      registry_.get(),
      "{\"op\":\"assign\",\"model\":\"narrow\","
      "\"row\":[\"Denver\",\"CO\",\"80201\",\"bob\"]}");
  ASSERT_NE(pre_info, post_info);  // k=3 vs k=2: the states are distinct

  // Concurrent load: every response must be a valid engine state —
  // pre-reload or post-reload bytes, nothing else (stale-mixed, torn).
  std::atomic<bool> failed{false};
  std::atomic<bool> running{true};
  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&, c] {
      const std::string& query = (c % 2 == 0) ? info_query : assign_query;
      const std::string& pre = (c % 2 == 0) ? pre_info : pre_assign;
      const std::string& post = (c % 2 == 0) ? post_info : post_assign;
      TestClient client;
      if (!client.Connect(port())) {
        failed.store(true);
        return;
      }
      while (running.load() && !failed.load()) {
        std::string response;
        if (!client.SendLine(query) || !client.ReadLine(&response) ||
            (response != pre && response != post)) {
          failed.store(true);
          return;
        }
      }
    });
  }

  // Warm the cache on the old version, then blue/green: overwrite the
  // wide bundle with the narrow one and reload through the admin op.
  {
    TestClient warm;
    ASSERT_TRUE(warm.Connect(port()));
    std::string response;
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(warm.SendLine(info_query));
      ASSERT_TRUE(warm.ReadLine(&response));
      ASSERT_TRUE(warm.SendLine(assign_query));
      ASSERT_TRUE(warm.ReadLine(&response));
    }
  }
  {
    std::ifstream in(narrow_path_, std::ios::binary);
    std::ofstream out(wide_path_, std::ios::binary | std::ios::trunc);
    out << in.rdbuf();
  }
  TestClient admin;
  ASSERT_TRUE(admin.Connect(port()));
  std::string reload_response;
  ASSERT_TRUE(admin.SendLine("{\"op\":\"reload\",\"model\":\"wide\"}"));
  ASSERT_TRUE(admin.ReadLine(&reload_response));
  ASSERT_NE(reload_response.find("\"ok\":true"), std::string::npos)
      << reload_response;

  // Zero stale responses: every query sent after the reload ack must
  // carry the new engine's bytes — the version-keyed cache cannot serve
  // version-1 entries to version-2 lookups.
  std::string response;
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(admin.SendLine(info_query));
    ASSERT_TRUE(admin.ReadLine(&response));
    EXPECT_EQ(response, post_info) << "stale response after reload, i=" << i;
    ASSERT_TRUE(admin.SendLine(assign_query));
    ASSERT_TRUE(admin.ReadLine(&response));
    EXPECT_EQ(response, post_assign)
        << "stale response after reload, i=" << i;
  }

  running.store(false);
  for (std::thread& client : clients) client.join();
  EXPECT_FALSE(failed.load()) << "a response matched neither engine state";
  EXPECT_GT(registry_->CacheHits(), 0u);
}

}  // namespace
}  // namespace limbo::serve
