// End-to-end tests for the limbo-serve binary: fit a bundle with
// limbo-tool, then drive queries through `limbo-serve --once` and check
// the responses against the batch artifacts loaded via the C++ API.
// Binary paths are injected by CMake as LIMBO_TOOL_PATH/LIMBO_SERVE_PATH.

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "model/model_bundle.h"
#include "relation/csv_io.h"
#include "util/json.h"

#ifndef LIMBO_TOOL_PATH
#error "LIMBO_TOOL_PATH must be defined by the build"
#endif
#ifndef LIMBO_SERVE_PATH
#error "LIMBO_SERVE_PATH must be defined by the build"
#endif

namespace {

using namespace limbo;  // NOLINT

struct RunResult {
  int exit_code = -1;
  std::string output;
};

RunResult RunCommand(const std::string& command) {
  RunResult result;
  FILE* pipe = popen((command + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return result;
  char buffer[4096];
  while (fgets(buffer, sizeof(buffer), pipe) != nullptr) {
    result.output += buffer;
  }
  result.exit_code = WEXITSTATUS(pclose(pipe));
  return result;
}

/// Paths of the per-process db2 sample and its fitted bundle, generated
/// once (each TEST runs in its own process under gtest_discover_tests).
struct Fixture {
  std::string csv;
  std::string bundle;
};

const Fixture& SharedFixture() {
  static Fixture fixture = [] {
    Fixture f;
    const std::string stem =
        ::testing::TempDir() + "/limbo_serve_cli." + std::to_string(getpid());
    f.csv = stem + ".csv";
    f.bundle = stem + ".limbo";
    RunResult r = RunCommand(std::string(LIMBO_TOOL_PATH) +
                             " generate db2 --out=" + f.csv);
    EXPECT_EQ(r.exit_code, 0) << r.output;
    r = RunCommand(std::string(LIMBO_TOOL_PATH) + " fit " + f.csv +
                   " --k=5 --model-out=" + f.bundle);
    EXPECT_EQ(r.exit_code, 0) << r.output;
    return f;
  }();
  return fixture;
}

/// Runs `limbo-serve --once` feeding `queries` on stdin; returns the
/// response lines.
std::vector<std::string> ServeOnce(const std::vector<std::string>& queries,
                                   const std::string& extra_flags) {
  const std::string in_path = ::testing::TempDir() + "/limbo_serve_in." +
                              std::to_string(getpid()) + ".jsonl";
  {
    std::ofstream in(in_path, std::ios::binary);
    for (const std::string& q : queries) in << q << "\n";
  }
  const RunResult r =
      RunCommand(std::string(LIMBO_SERVE_PATH) + " " +
                 SharedFixture().bundle + " --once " + extra_flags + " < " +
                 in_path);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < r.output.size()) {
    const size_t end = r.output.find('\n', start);
    if (end == std::string::npos) break;
    lines.push_back(r.output.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

std::vector<std::string> AssignQueriesForAllRows(
    const relation::Relation& rel) {
  std::vector<std::string> queries;
  for (relation::TupleId t = 0; t < rel.NumTuples(); ++t) {
    std::string q = "{\"op\":\"assign\",\"row\":[";
    for (relation::AttributeId a = 0; a < rel.NumAttributes(); ++a) {
      if (a > 0) q.push_back(',');
      util::AppendJsonString(rel.TextAt(t, a), &q);
    }
    q += "]}";
    queries.push_back(std::move(q));
  }
  return queries;
}

TEST(ServeCliTest, InfoQueryReportsTheModel) {
  const RunResult r =
      RunCommand(std::string(LIMBO_SERVE_PATH) + " " + SharedFixture().bundle +
                 " --once --query={\\\"op\\\":\\\"info\\\"}");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(r.output.find("\"rows\":90"), std::string::npos);
  EXPECT_NE(r.output.find("\"clusters\":5"), std::string::npos);
}

// The subsystem's acceptance criterion: serving the fit-time rows back
// through the daemon returns exactly the batch Phase-3 labels, and the
// full response stream is byte-identical at 1 and 4 workers.
TEST(ServeCliTest, OnceAssignMatchesBatchAtEveryWorkerCount) {
  auto rel = relation::ReadCsv(SharedFixture().csv);
  ASSERT_TRUE(rel.ok());
  auto bundle = model::Load(SharedFixture().bundle);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  const std::vector<std::string> queries = AssignQueriesForAllRows(*rel);

  const std::vector<std::string> at1 = ServeOnce(queries, "--workers=1");
  const std::vector<std::string> at4 = ServeOnce(queries, "--workers=4");
  EXPECT_EQ(at1, at4);

  ASSERT_EQ(at1.size(), bundle->assignments.size());
  for (size_t t = 0; t < at1.size(); ++t) {
    auto response = util::ParseJson(at1[t]);
    ASSERT_TRUE(response.ok()) << at1[t];
    const util::JsonValue* cluster = response->Find("cluster");
    ASSERT_NE(cluster, nullptr) << at1[t];
    EXPECT_EQ(cluster->integer, bundle->assignments[t]) << "row " << t;
  }
}

TEST(ServeCliTest, MixedQueryStreamIsDeterministic) {
  const std::vector<std::string> queries = {
      "{\"op\":\"info\"}",
      "{\"op\":\"attrs\"}",
      "{\"op\":\"fds\",\"limit\":3}",
      "{\"op\":\"valuegroup\",\"attr\":\"DeptNo\",\"value\":\"D01\"}",
      "{\"op\":\"nope\"}",
  };
  const std::vector<std::string> at1 = ServeOnce(queries, "--workers=1");
  const std::vector<std::string> at4 = ServeOnce(queries, "--workers=4");
  EXPECT_EQ(at1, at4);
  ASSERT_EQ(at1.size(), queries.size());
  EXPECT_NE(at1[3].find("DeptName=SPIFFY_COMPUTER"), std::string::npos);
  EXPECT_NE(at1[4].find("\"ok\":false"), std::string::npos);
}

TEST(ServeCliTest, MissingBundleFailsCleanly) {
  const RunResult r = RunCommand(std::string(LIMBO_SERVE_PATH) +
                                 " /nonexistent/nope.limbo --once");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("IoError"), std::string::npos);
}

TEST(ServeCliTest, CorruptBundleFailsCleanly) {
  const std::string path = ::testing::TempDir() + "/limbo_serve_corrupt." +
                           std::to_string(getpid()) + ".limbo";
  {
    std::ifstream in(SharedFixture().bundle, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    ASSERT_GT(bytes.size(), 100u);
    bytes[bytes.size() / 2] ^= 0x40;
    std::ofstream out(path, std::ios::binary);
    out << bytes;
  }
  const RunResult r =
      RunCommand(std::string(LIMBO_SERVE_PATH) + " " + path + " --once");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("checksum"), std::string::npos);
}

TEST(ServeCliTest, UnknownFlagIsRejected) {
  const RunResult r = RunCommand(std::string(LIMBO_SERVE_PATH) + " " +
                                 SharedFixture().bundle + " --no-such-flag");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST(ServeCliTest, NoArgumentsPrintsUsage) {
  const RunResult r = RunCommand(std::string(LIMBO_SERVE_PATH));
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

// Satellite 3: --port is validated as an integer in [0, 65535] instead
// of being fed through std::atoi (which maps garbage to 0 and silently
// truncates out-of-range ports).
TEST(ServeCliTest, PortRejectsNonInteger) {
  const RunResult r = RunCommand(std::string(LIMBO_SERVE_PATH) + " " +
                                 SharedFixture().bundle + " --port=abc");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("--port"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("[0, 65535]"), std::string::npos) << r.output;
}

TEST(ServeCliTest, PortRejectsOutOfRange) {
  const RunResult r = RunCommand(std::string(LIMBO_SERVE_PATH) + " " +
                                 SharedFixture().bundle + " --port=70000");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("--port"), std::string::npos) << r.output;
}

TEST(ServeCliTest, PortRejectsNegativeAndTrailingGarbage) {
  RunResult r = RunCommand(std::string(LIMBO_SERVE_PATH) + " " +
                           SharedFixture().bundle + " --port=-1");
  EXPECT_EQ(r.exit_code, 2);
  r = RunCommand(std::string(LIMBO_SERVE_PATH) + " " +
                 SharedFixture().bundle + " --port=7070x");
  EXPECT_EQ(r.exit_code, 2);
  r = RunCommand(std::string(LIMBO_SERVE_PATH) + " " +
                 SharedFixture().bundle + " --port=");
  EXPECT_EQ(r.exit_code, 2);
}

// Every flag but --once and --model needs "=value": given bare, --workers,
// --batch-max and --max-pending used to read as 1 and serve anyway.
TEST(ServeCliTest, ValueFlagsNeedAValue) {
  for (const char* flag : {"--workers", "--batch-max", "--max-pending",
                           "--cache-entries", "--port", "--oov"}) {
    SCOPED_TRACE(flag);
    const RunResult r =
        RunCommand(std::string(LIMBO_SERVE_PATH) + " " +
                   SharedFixture().bundle + " --once " + flag +
                   " --query='{\"op\":\"info\"}'");
    EXPECT_EQ(r.exit_code, 2) << r.output;
    EXPECT_NE(r.output.find(std::string(flag) + " needs a value"),
              std::string::npos)
        << r.output;
  }
}

TEST(ServeCliTest, OnceRefusesAValue) {
  const RunResult r = RunCommand(std::string(LIMBO_SERVE_PATH) + " " +
                                 SharedFixture().bundle + " --once=0" +
                                 " --query='{\"op\":\"info\"}'");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("--once takes no value"), std::string::npos)
      << r.output;
}

TEST(ServeCliTest, SizeFlagsKeepTheirBounds) {
  struct Case {
    std::string flag;
    std::string message;
  };
  const std::vector<Case> cases = {
      {"--workers=0", "--workers must be an integer in [1, 4096]"},
      {"--workers=4097", "--workers must be an integer in [1, 4096]"},
      {"--batch-max=0", "--batch-max must be an integer in [1, 4096]"},
      {"--max-pending=0", "--max-pending must be a positive integer"},
      {"--max-pending=1048577", "--max-pending must be a positive integer"},
      {"--cache-entries=16777217",
       "--cache-entries must be an integer in [0, 16777216]"},
      {"--cache-entries=x",
       "--cache-entries must be an integer in [0, 16777216]"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.flag);
    const RunResult r = RunCommand(std::string(LIMBO_SERVE_PATH) + " " +
                                   SharedFixture().bundle + " --once " +
                                   c.flag + " --query='{\"op\":\"info\"}'");
    EXPECT_EQ(r.exit_code, 2) << r.output;
    EXPECT_NE(r.output.find(c.message), std::string::npos) << r.output;
  }
  // The upper bounds themselves still serve (--workers stays small: each
  // worker is a thread).
  const RunResult r = RunCommand(
      std::string(LIMBO_SERVE_PATH) + " " + SharedFixture().bundle +
      " --once --workers=2 --batch-max=4096 --max-pending=1048576"
      " --cache-entries=16777216 --query='{\"op\":\"info\"}'");
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

/// A second bundle (k=2) fitted over the same CSV, for registry tests.
const std::string& CoarseBundle() {
  static const std::string path = [] {
    const std::string p = ::testing::TempDir() + "/limbo_serve_cli_k2." +
                          std::to_string(getpid()) + ".limbo";
    const RunResult r =
        RunCommand(std::string(LIMBO_TOOL_PATH) + " fit " +
                   SharedFixture().csv + " --k=2 --model-out=" + p);
    EXPECT_EQ(r.exit_code, 0) << r.output;
    return p;
  }();
  return path;
}

// Multi-model registry through the CLI: a positional bundle plus a
// --model flag, routed by the "model" query field.
TEST(ServeCliTest, OnceModeRoutesAcrossRegistry) {
  const std::vector<std::string> responses =
      ServeOnce({"{\"op\":\"models\"}",
                 "{\"op\":\"info\",\"model\":\"coarse\"}",
                 "{\"op\":\"info\"}",
                 "{\"op\":\"info\",\"model\":\"missing\"}"},
                "--model=coarse=" + CoarseBundle());
  ASSERT_EQ(responses.size(), 4u);
  // Two models; the positional bundle (file stem) is the default.
  EXPECT_NE(responses[0].find("\"model\":\"coarse\""), std::string::npos)
      << responses[0];
  EXPECT_NE(responses[0].find("\"is_default\":true"), std::string::npos)
      << responses[0];
  EXPECT_NE(responses[1].find("\"clusters\":2"), std::string::npos)
      << responses[1];
  EXPECT_NE(responses[2].find("\"clusters\":5"), std::string::npos)
      << responses[2];
  EXPECT_NE(responses[3].find("\"code\":\"NotFound\""), std::string::npos)
      << responses[3];
}

TEST(ServeCliTest, DefaultModelFlagSelectsTheDefault) {
  const std::vector<std::string> responses = ServeOnce(
      {"{\"op\":\"info\"}"},
      "--model=coarse=" + CoarseBundle() + " --default-model=coarse");
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_NE(responses[0].find("\"clusters\":2"), std::string::npos)
      << responses[0];
}

/// A forked limbo-serve daemon on an ephemeral port: the fixture execs
/// the real binary, parses the port from its "listening on" line, and
/// delivers signals to it like init/systemd would.
class Daemon {
 public:
  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      ::waitpid(pid_, &status, 0);
    }
    if (out_fd_ >= 0) ::close(out_fd_);
  }

  bool Start(const std::string& extra_flags) {
    int out_pipe[2];
    if (::pipe(out_pipe) != 0) return false;
    pid_ = ::fork();
    if (pid_ == 0) {
      ::dup2(out_pipe[1], STDOUT_FILENO);
      ::close(out_pipe[0]);
      ::close(out_pipe[1]);
      const std::string cmd = std::string("exec ") + LIMBO_SERVE_PATH + " " +
                              SharedFixture().bundle + " --port=0 " +
                              extra_flags;
      ::execl("/bin/sh", "sh", "-c", cmd.c_str(),
              static_cast<char*>(nullptr));
      ::_exit(127);
    }
    ::close(out_pipe[1]);
    out_fd_ = out_pipe[0];
    std::string line;
    char c;
    while (line.find('\n') == std::string::npos) {
      const ssize_t n = ::read(out_fd_, &c, 1);
      if (n <= 0) return false;
      line.push_back(c);
    }
    return std::sscanf(line.c_str(), "limbo-serve: listening on 127.0.0.1:%d",
                       &port_) == 1;
  }

  int port() const { return port_; }

  void Signal(int sig) const { ::kill(pid_, sig); }

  /// SIGTERM, then collect the exit status and whatever stdout remains.
  int WaitForCleanExit(std::string* tail) {
    Signal(SIGTERM);
    char buffer[1024];
    ssize_t n;
    while ((n = ::read(out_fd_, buffer, sizeof(buffer))) > 0) {
      tail->append(buffer, static_cast<size_t>(n));
    }
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  int port_ = 0;
};

/// Blocking loopback client against the daemon (sends never raise
/// SIGPIPE in the test itself).
class RawClient {
 public:
  ~RawClient() { Close(); }

  bool Connect(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    struct sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(port));
    if (::connect(fd_, reinterpret_cast<struct sockaddr*>(&addr),
                  sizeof(addr)) < 0) {
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
        if (buffered_.empty()) return false;
        line->swap(buffered_);
        return true;
      }
      if (n < 0) return false;
      buffered_.append(chunk, static_cast<size_t>(n));
    }
    return false;
  }

  void ShutdownWrite() const { ::shutdown(fd_, SHUT_WR); }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
  std::string buffered_;
};

TEST(ServeDaemonTest, AnswersOverTcpAndExitsCleanlyOnSigterm) {
  Daemon daemon;
  ASSERT_TRUE(daemon.Start(""));
  RawClient client;
  ASSERT_TRUE(client.Connect(daemon.port()));
  std::string response;
  ASSERT_TRUE(client.Send("{\"op\":\"info\"}\n"));
  ASSERT_TRUE(client.ReadLine(&response));
  EXPECT_NE(response.find("\"clusters\":5"), std::string::npos) << response;
  client.Close();

  std::string tail;
  EXPECT_EQ(daemon.WaitForCleanExit(&tail), 0) << tail;
  EXPECT_NE(tail.find("shut down cleanly"), std::string::npos) << tail;
}

// Satellite 1 regression, against the real binary: a client killed
// between request and response used to take the whole daemon down with
// SIGPIPE mid-send.
TEST(ServeDaemonTest, SurvivesClientKilledBeforeResponse) {
  Daemon daemon;
  ASSERT_TRUE(daemon.Start("--workers=2"));
  for (int round = 0; round < 10; ++round) {
    RawClient doomed;
    ASSERT_TRUE(doomed.Connect(daemon.port()));
    ASSERT_TRUE(doomed.Send("{\"op\":\"fds\",\"limit\":50}\n"));
    doomed.Close();  // vanish without reading the response
  }
  RawClient checker;
  ASSERT_TRUE(checker.Connect(daemon.port()));
  std::string response;
  ASSERT_TRUE(checker.Send("{\"op\":\"info\"}\n"));
  ASSERT_TRUE(checker.ReadLine(&response));
  EXPECT_NE(response.find("\"ok\":true"), std::string::npos) << response;
  checker.Close();

  std::string tail;
  EXPECT_EQ(daemon.WaitForCleanExit(&tail), 0) << tail;
}

// Satellite 2 regression: SIGHUP (hot reload) mid-conversation must not
// drop the connection — the EINTR it causes in blocked socket calls is
// retried, and the same connection keeps answering, now at version 2.
TEST(ServeDaemonTest, SighupReloadsWithoutDroppingConnections) {
  Daemon daemon;
  ASSERT_TRUE(daemon.Start("--model=coarse=" + CoarseBundle()));
  RawClient client;
  ASSERT_TRUE(client.Connect(daemon.port()));
  std::string response;
  ASSERT_TRUE(client.Send("{\"op\":\"info\",\"model\":\"coarse\"}\n"));
  ASSERT_TRUE(client.ReadLine(&response));
  EXPECT_NE(response.find("\"clusters\":2"), std::string::npos) << response;

  daemon.Signal(SIGHUP);
  // The acceptor observes the flag within its poll interval; poll until
  // the models op reports the bumped versions.
  bool reloaded = false;
  for (int spins = 0; spins < 100 && !reloaded; ++spins) {
    ::usleep(20000);
    ASSERT_TRUE(client.Send("{\"op\":\"models\"}\n"));
    ASSERT_TRUE(client.ReadLine(&response));
    reloaded = response.find("\"version\":2") != std::string::npos;
  }
  EXPECT_TRUE(reloaded) << response;

  // Same connection, still serving.
  ASSERT_TRUE(client.Send("{\"op\":\"info\",\"model\":\"coarse\"}\n"));
  ASSERT_TRUE(client.ReadLine(&response));
  EXPECT_NE(response.find("\"clusters\":2"), std::string::npos) << response;
  client.Close();

  std::string tail;
  EXPECT_EQ(daemon.WaitForCleanExit(&tail), 0) << tail;
}

// Satellite 4 regression: the final query of a connection, sent without
// a trailing newline before shutdown(SHUT_WR), is still answered.
TEST(ServeDaemonTest, AnswersFinalQueryWithoutNewline) {
  Daemon daemon;
  ASSERT_TRUE(daemon.Start(""));
  RawClient client;
  ASSERT_TRUE(client.Connect(daemon.port()));
  ASSERT_TRUE(client.Send("{\"op\":\"info\"}"));  // no newline
  client.ShutdownWrite();
  std::string response;
  ASSERT_TRUE(client.ReadLine(&response));
  EXPECT_NE(response.find("\"clusters\":5"), std::string::npos) << response;
  client.Close();

  std::string tail;
  EXPECT_EQ(daemon.WaitForCleanExit(&tail), 0) << tail;
}

}  // namespace
