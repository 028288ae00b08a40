#ifndef LIMBO_PERFBENCH_LOAD_H_
#define LIMBO_PERFBENCH_LOAD_H_

// Open-loop NDJSON load over TCP from a single generator thread: requests
// are due on a fixed schedule (one every 1/rate seconds, round-robin over
// the connections) whether or not earlier ones were answered, and each is
// timed from when it was due, so a stall is charged to every request that
// queued behind it.

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common.h"
#include "util/result.h"

namespace limbo::perfbench {

/// Outcome of one fixed-rate step.
struct StepResult {
  double rate = 0.0;
  uint64_t sent = 0;
  uint64_t failed = 0;   // responses the check rejected
  uint64_t dropped = 0;  // never answered before the drain deadline
  /// Latency of every request, microseconds from its due time; failed
  /// and dropped requests count as infinitely late.
  std::vector<double> latency_us;
  /// How late the generator itself sent requests, microseconds.
  double lag_p99_us = 0.0;
  /// The generator ran late past its budget: the step measured the
  /// generator, not the server, and never counts as met.
  bool invalid = false;
  /// Outstanding requests rose through the step instead of holding level.
  bool backlog_grew = false;

  double P99() const { return Percentile(latency_us, 0.99); }
  /// Valid, nothing failed or dropped, p99 within the limit, no growing
  /// backlog.
  bool Met(double p99_limit_us) const;
};

/// Called for every response with the request id, its due time and the
/// response bytes (no newline); returns false when the response is wrong.
using ResponseCheck = std::function<bool(uint64_t id, Clock::time_point due,
                                         std::string_view response)>;
/// Writes request `id` as one NDJSON line (no newline) into *line.
using RequestLine = std::function<void(uint64_t id, std::string* line)>;

class OpenLoopClient {
 public:
  /// Opens `connections` loopback connections to `port`.
  static util::Result<OpenLoopClient> Connect(int port, size_t connections);

  OpenLoopClient(OpenLoopClient&& other) noexcept;
  OpenLoopClient& operator=(OpenLoopClient&&) = delete;
  OpenLoopClient(const OpenLoopClient&) = delete;
  OpenLoopClient& operator=(const OpenLoopClient&) = delete;
  ~OpenLoopClient();

  /// Sends requests first_id .. first_id + rate*seconds - 1 on schedule
  /// and waits (up to `drain_seconds` past the last due time) for every
  /// response. A step whose generator p99 lag exceeds `lag_budget_us` is
  /// marked invalid.
  StepResult RunStep(double rate, double seconds, uint64_t first_id,
                     const RequestLine& request, const ResponseCheck& check,
                     double lag_budget_us, double drain_seconds);

 private:
  /// A request sent and not yet answered. One left unanswered at a step's
  /// drain deadline stays queued, marked stale, so its late response is
  /// consumed and discarded instead of being matched to a newer request.
  struct Pending {
    uint64_t id;
    Clock::time_point due;
    bool stale;
  };
  struct Conn {
    int fd = -1;
    std::string out;
    size_t out_pos = 0;
    std::string in;
    std::deque<Pending> pending;
  };

  /// Reads what `conn` has, matches responses to requests in order and
  /// checks them; returns how many of this step's requests were answered.
  static uint64_t Receive(Conn* conn, const ResponseCheck& check,
                          StepResult* result);
  /// Sends as much of every connection's queued output as the socket takes.
  void Flush();

  explicit OpenLoopClient(std::vector<Conn> conns)
      : conns_(std::move(conns)) {}

  std::vector<Conn> conns_;
};

/// Blocking one-request-at-a-time client (admin ops, cold-start probes).
class LineClient {
 public:
  static util::Result<LineClient> Connect(int port);

  LineClient(LineClient&& other) noexcept;
  LineClient& operator=(LineClient&&) = delete;
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;
  ~LineClient();

  /// Sends `line` plus a newline and reads one response line.
  util::Result<std::string> Call(const std::string& line);

 private:
  explicit LineClient(int fd) : fd_(fd) {}

  int fd_ = -1;
  std::string buffered_;
};

}  // namespace limbo::perfbench

#endif  // LIMBO_PERFBENCH_LOAD_H_
