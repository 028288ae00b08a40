#ifndef LIMBO_SERVE_SERVER_H_
#define LIMBO_SERVE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <csignal>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/prob.h"
#include "serve/registry.h"
#include "util/result.h"

namespace limbo::serve {

struct ServerOptions {
  /// TCP port on 127.0.0.1; 0 picks an ephemeral port (read it back via
  /// port()).
  int port = 0;
  /// Serving lanes: worker threads draining request batches. Each lane
  /// owns its LossKernel, so responses are bit-identical at every count.
  size_t workers = 1;
  /// Admission control: at most workers + max_pending connections are
  /// open at once; connections beyond that are shed immediately with
  /// {"ok":false,"code":"overloaded",...} instead of queuing behind
  /// slow clients.
  size_t max_pending = 128;
  /// How often (ms) the reactor wakes with no socket activity to observe
  /// the stop / reload flags.
  int poll_ms = 100;
  /// Most requests one worker drains into a single batch. Requests from
  /// any mix of connections batch together; 1 disables cross-request
  /// batching (every request is its own batch).
  size_t batch_max = 16;
};

/// TCP front end over a Registry.
///
/// One reactor thread (whichever thread calls Run) accepts connections
/// and multiplexes reads across all of them, framing newline-delimited
/// queries into per-connection queues; `workers` lanes drain up to
/// batch_max queued requests at a time — across connections — and answer
/// each batch through Registry::HandleBatch with a lane-owned LossKernel,
/// writing one concatenated send per connection per batch. A connection
/// with requests in flight is claimed by exactly one worker until those
/// responses are written, so per-connection response order always
/// matches request order, while requests from different connections
/// share batches freely. Batching never changes bytes: a request's
/// response is the same at every batch size and worker count.
///
/// The socket path is hardened for real clients:
///  - every send uses MSG_NOSIGNAL, so a peer closing mid-response
///    surfaces as an error on that one connection, never as SIGPIPE;
///  - recv/send/accept/poll retry on EINTR, so signals (e.g. SIGHUP for
///    hot reload) never spuriously drop a connection;
///  - a final query sent without a trailing newline before the peer
///    shuts down its write side is still answered, matching --once;
///  - a request line longer than kMaxLineBytes is never buffered past
///    the cap: the requests before it are answered in order, then the
///    connection gets one {"ok":false,"code":"line_too_long",...} and is
///    closed.
///  - a connection holding kMaxQueuedLines framed, unanswered requests is
///    not read from until the lanes drain its queue below the cap, so a
///    client that pipelines faster than it reads meets TCP backpressure
///    instead of growing the server's memory; every request is still
///    answered exactly once, in order.
///
/// Hot reload happens through the registry ({"op":"reload"} or the
/// reload flag passed to Run): queries in flight finish on the engine
/// snapshot they grabbed; new queries see the new engine.
class Server {
 public:
  /// Longest request line (without its '\n') a connection may send.
  static constexpr size_t kMaxLineBytes = size_t{1} << 20;
  /// Framed, unanswered requests one connection may queue before the
  /// reactor stops reading it (one read may frame a few more).
  static constexpr size_t kMaxQueuedLines = 1024;

  /// Binds 127.0.0.1:port, starts listening and spawns the worker
  /// lanes. The listener is live when Start returns (port() is
  /// resolved); call Run to start accepting.
  static util::Result<std::unique_ptr<Server>> Start(
      Registry* registry, const ServerOptions& options);

  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  int port() const { return port_; }

  /// Reactor loop on the calling thread. Returns — after answering
  /// every request peers already sent — once *stop becomes nonzero.
  /// When `reload` is non-null it is checked every wakeup: nonzero
  /// triggers Registry::ReloadAll and the flag is cleared first (SIGHUP
  /// semantics: a HUP landing mid-reload queues another pass). The
  /// flags are lock-free atomics, which are both async-signal-safe (a
  /// handler may store them) and race-free against this thread.
  void Run(const std::atomic<int>* stop, std::atomic<int>* reload = nullptr);

  /// Joins the worker lanes (after they drain already-framed requests)
  /// and closes the listener and any remaining connections. Idempotent;
  /// called by Run on exit and by the destructor.
  void Stop();

  uint64_t connections_served() const {
    return connections_.load(std::memory_order_relaxed);
  }
  uint64_t sheds() const { return sheds_.load(std::memory_order_relaxed); }
  /// Batches drained and requests answered through them; their ratio is
  /// the realized mean batch size.
  uint64_t batches() const { return batches_.load(std::memory_order_relaxed); }
  uint64_t batched_requests() const {
    return batched_requests_.load(std::memory_order_relaxed);
  }
  /// Most framed, unanswered requests any one connection has queued.
  size_t peak_queued_lines() const {
    return peak_queued_lines_.load(std::memory_order_relaxed);
  }

 private:
  /// One accepted connection. The reactor owns fd, inbuf and the
  /// container slot; lines and the state flags are shared under mu_.
  /// Workers never close fds — they flag the connection and the reactor
  /// (the only thread that accepts) garbage-collects, so an fd number
  /// can never be recycled while a stale pollfd still references it.
  struct Conn {
    int fd = -1;
    std::string inbuf;               // reactor-only: unframed bytes
    std::deque<std::string> lines;   // framed, unanswered requests
    bool eof = false;                // peer finished sending
    bool dead = false;               // transport error; discard & close
    bool claimed = false;            // a worker owns its queued lines
    bool ready = false;              // sitting in ready_
    bool line_too_long = false;      // reactor-only: error, then close
  };

  Server(Registry* registry, const ServerOptions& options);

  util::Status Bind();
  void Lane();
  void Shed(int fd);
  /// Accepts one connection if the listener is readable (admission
  /// control included).
  void AcceptOne();
  /// Reads once from `conn`, frames complete lines into conn->lines and
  /// wakes a worker when the connection became ready.
  void ReadConn(Conn* conn);
  /// Closes and erases connections that are finished (eof or dead, not
  /// claimed, nothing left to answer). Reactor thread only.
  void CollectFinished();
  /// Appends `line` (already stripped of the trailing newline) to the
  /// connection's queue under mu_; empty lines are dropped without a
  /// response, matching --once on blank stdin lines.
  void EnqueueLines(Conn* conn, std::vector<std::string> lines, bool eof);

  Registry* registry_;
  ServerOptions options_;
  int listen_fd_ = -1;
  int port_ = 0;

  std::atomic<bool> stopped_{false};
  std::atomic<uint64_t> connections_{0};
  std::atomic<uint64_t> sheds_{0};
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> batched_requests_{0};
  std::atomic<size_t> peak_queued_lines_{0};

  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::unique_ptr<Conn>> conns_;  // reactor-owned container
  std::deque<Conn*> ready_;       // unclaimed connections with lines
  bool stopping_ = false;
  std::vector<std::jthread> lanes_;
};

}  // namespace limbo::serve

#endif  // LIMBO_SERVE_SERVER_H_
