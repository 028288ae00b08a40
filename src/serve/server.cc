#include "serve/server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "obs/counters.h"
#include "serve/wire.h"

namespace limbo::serve {

namespace {

/// recv() retrying on EINTR: a signal mid-read (SIGHUP for reload, ...)
/// must not masquerade as a peer close.
ssize_t RecvSome(int fd, char* buffer, size_t size) {
  ssize_t n;
  do {
    n = ::recv(fd, buffer, size, 0);
  } while (n < 0 && errno == EINTR);
  return n;
}

/// Writes the whole buffer with MSG_NOSIGNAL (a dead peer yields EPIPE,
/// never SIGPIPE) and EINTR retries. False on any unrecoverable error.
bool SendAll(int fd, const char* data, size_t size) {
  size_t sent = 0;
  while (sent < size) {
    const ssize_t w = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    sent += static_cast<size_t>(w);
  }
  return true;
}

}  // namespace

Server::Server(Registry* registry, const ServerOptions& options)
    : registry_(registry), options_(options) {
  if (options_.workers == 0) options_.workers = 1;
  if (options_.max_pending == 0) options_.max_pending = 1;
  if (options_.batch_max == 0) options_.batch_max = 1;
}

Server::~Server() { Stop(); }

util::Status Server::Bind() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return util::Status::IoError(std::string("socket: ") +
                                 std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) < 0) {
    const util::Status status =
        util::Status::IoError(std::string("bind: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  if (::listen(listen_fd_, 128) < 0) {
    const util::Status status =
        util::Status::IoError(std::string("listen: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  socklen_t addr_len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
                &addr_len);
  port_ = ntohs(addr.sin_port);
  return util::Status::Ok();
}

util::Result<std::unique_ptr<Server>> Server::Start(
    Registry* registry, const ServerOptions& options) {
  if (registry == nullptr || registry->NumModels() == 0) {
    return util::Status::FailedPrecondition(
        "server needs a registry with at least one model");
  }
  std::unique_ptr<Server> server(new Server(registry, options));
  LIMBO_RETURN_IF_ERROR(server->Bind());
  server->lanes_.reserve(server->options_.workers);
  for (size_t lane = 0; lane < server->options_.workers; ++lane) {
    server->lanes_.emplace_back([s = server.get()] { s->Lane(); });
  }
  return server;
}

void Server::Shed(int fd) {
  sheds_.fetch_add(1, std::memory_order_relaxed);
  LIMBO_OBS_COUNT("serve.sheds", 1);
  const std::string response =
      ErrorResponse("overloaded",
                    "pending connection queue is full; retry later") +
      "\n";
  (void)SendAll(fd, response.data(), response.size());
  ::close(fd);
}

void Server::AcceptOne() {
  int fd;
  do {
    fd = ::accept(listen_fd_, nullptr, nullptr);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) return;
  // Same admission bound as the lane-per-connection design: `workers`
  // connections being actively served plus max_pending waiting ones.
  if (conns_.size() >= options_.workers + options_.max_pending) {
    Shed(fd);
    return;
  }
  // Responses already leave as one send per connection per batch, so
  // Nagle would only hold each one back until the peer's delayed ACK.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  connections_.fetch_add(1, std::memory_order_relaxed);
  LIMBO_OBS_COUNT("serve.connections", 1);
  auto conn = std::make_unique<Conn>();
  conn->fd = fd;
  conns_.push_back(std::move(conn));
}

void Server::EnqueueLines(Conn* conn, std::vector<std::string> lines,
                          bool eof) {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::string& line : lines) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;  // blank line: no request, no response
    conn->lines.push_back(std::move(line));
  }
  const size_t queued = conn->lines.size();  // the peak is written under mu_
  if (queued > peak_queued_lines_.load(std::memory_order_relaxed)) {
    peak_queued_lines_.store(queued, std::memory_order_relaxed);
  }
  if (eof) conn->eof = true;
  if (!conn->claimed && !conn->ready && !conn->lines.empty()) {
    conn->ready = true;
    ready_.push_back(conn);
    cv_.notify_one();
  }
}

void Server::ReadConn(Conn* conn) {
  char buffer[4096];
  const ssize_t n = RecvSome(conn->fd, buffer, sizeof(buffer));
  if (n < 0) {
    std::lock_guard<std::mutex> lock(mu_);
    conn->dead = true;
    if (!conn->claimed && !conn->ready) conn->lines.clear();
    return;
  }
  std::vector<std::string> framed;
  bool eof = false;
  if (n == 0) {
    eof = true;
    // Orderly EOF with an unterminated final query: answer it anyway,
    // matching --once/stdin behavior (the peer's read side is still
    // open after shutdown(SHUT_WR)).
    if (!conn->inbuf.empty()) {
      framed.push_back(std::move(conn->inbuf));
      conn->inbuf.clear();
    }
  } else {
    conn->inbuf.append(buffer, static_cast<size_t>(n));
    size_t start = 0;
    size_t newline;
    while ((newline = conn->inbuf.find('\n', start)) != std::string::npos &&
           newline - start <= kMaxLineBytes) {
      framed.push_back(conn->inbuf.substr(start, newline - start));
      start = newline + 1;
    }
    conn->inbuf.erase(0, start);
    if (conn->inbuf.size() > kMaxLineBytes) {
      // An over-long line, finished or not: the lines before it are still
      // answered, then CollectFinished sends line_too_long and closes.
      // Nothing more is read, so the buffer stops growing here.
      conn->inbuf.clear();
      conn->inbuf.shrink_to_fit();
      conn->line_too_long = true;
      eof = true;
    }
  }
  if (eof || !framed.empty()) EnqueueLines(conn, std::move(framed), eof);
}

void Server::CollectFinished() {
  std::vector<std::unique_ptr<Conn>> finished;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = conns_.begin(); it != conns_.end();) {
      Conn* c = it->get();
      if (!c->claimed && !c->ready && c->lines.empty() &&
          (c->eof || c->dead)) {
        finished.push_back(std::move(*it));
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }
  }
  // Closing outside the lock: the fd cannot be recycled into a stale
  // pollfd because only this thread accepts, after this call returns.
  // Every earlier response of the connection is out by now. The error
  // send is best-effort and non-blocking: a peer that stopped reading
  // must not stall the reactor.
  for (const std::unique_ptr<Conn>& c : finished) {
    if (c->line_too_long) {
      const std::string response =
          ErrorResponse("line_too_long",
                        "request line exceeds " +
                            std::to_string(kMaxLineBytes) +
                            " bytes; closing connection") +
          "\n";
      (void)::send(c->fd, response.data(), response.size(),
                   MSG_NOSIGNAL | MSG_DONTWAIT);
    }
    ::close(c->fd);
  }
}

void Server::Run(const std::atomic<int>* stop, std::atomic<int>* reload) {
  std::vector<struct pollfd> pfds;
  std::vector<Conn*> pconns;
  // Returns whether a connection was left out for holding a full queue.
  const auto build_pollfds = [&](bool with_listener) {
    pfds.clear();
    pconns.clear();
    if (with_listener) pfds.push_back({listen_fd_, POLLIN, 0});
    bool paused = false;
    std::lock_guard<std::mutex> lock(mu_);
    for (const std::unique_ptr<Conn>& c : conns_) {
      if (c->eof || c->dead) continue;
      if (c->lines.size() >= kMaxQueuedLines) {
        paused = true;
        continue;
      }
      pfds.push_back({c->fd, POLLIN, 0});
      pconns.push_back(c.get());
    }
    return paused;
  };
  while (stop->load(std::memory_order_relaxed) == 0) {
    if (reload != nullptr && reload->load(std::memory_order_relaxed) != 0) {
      reload->store(0, std::memory_order_relaxed);
      util::Status s = registry_->ReloadAll();
      if (!s.ok()) {
        std::fprintf(stderr, "limbo-serve: %s\n", s.ToString().c_str());
      }
    }
    CollectFinished();
    // Lanes do not wake the reactor, so while a connection is paused
    // re-check its queue every millisecond to resume reading promptly.
    const bool paused = build_pollfds(/*with_listener=*/true);
    const int ready = ::poll(pfds.data(), pfds.size(),
                             paused ? std::min(options_.poll_ms, 1)
                                    : options_.poll_ms);
    if (ready <= 0) continue;  // timeout or EINTR: re-check the flags
    if ((pfds[0].revents & POLLIN) != 0) AcceptOne();
    for (size_t i = 1; i < pfds.size(); ++i) {
      if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        ReadConn(pconns[i - 1]);
      }
    }
  }
  // Drain: one zero-timeout read pass frames whatever complete queries
  // peers already sent; the lanes answer them before Stop joins.
  CollectFinished();
  build_pollfds(/*with_listener=*/false);
  if (!pfds.empty()) {
    const int ready = ::poll(pfds.data(), pfds.size(), 0);
    if (ready > 0) {
      for (size_t i = 0; i < pfds.size(); ++i) {
        if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
          ReadConn(pconns[i]);
        }
      }
    }
  }
  Stop();
}

void Server::Stop() {
  bool expected = false;
  if (!stopped_.compare_exchange_strong(expected, true)) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::jthread& lane : lanes_) {
    if (lane.joinable()) lane.join();
  }
  lanes_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // Every lane is joined, so no connection is claimed any more.
  for (const std::unique_ptr<Conn>& c : conns_) {
    if (c->fd >= 0) ::close(c->fd);
  }
  conns_.clear();
}

void Server::Lane() {
  core::LossKernel kernel;
  std::vector<Conn*> claimed;          // unique connections in this batch
  std::vector<Conn*> order;            // batch[i]'s connection
  std::vector<std::string> batch;      // drained request lines
  for (;;) {
    claimed.clear();
    order.clear();
    batch.clear();
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !ready_.empty(); });
      if (ready_.empty()) return;  // stopping and nothing left to answer
      while (!ready_.empty() && batch.size() < options_.batch_max) {
        Conn* c = ready_.front();
        ready_.pop_front();
        c->ready = false;
        c->claimed = true;
        claimed.push_back(c);
        // Take the connection's lines in arrival order. If the batch
        // fills mid-connection the leftovers stay queued; the release
        // below re-readies the connection once these responses are out,
        // which is what keeps per-connection responses ordered.
        while (!c->lines.empty() && batch.size() < options_.batch_max) {
          batch.push_back(std::move(c->lines.front()));
          c->lines.pop_front();
          order.push_back(c);
        }
      }
    }
    if (!batch.empty()) {
      batches_.fetch_add(1, std::memory_order_relaxed);
      batched_requests_.fetch_add(batch.size(), std::memory_order_relaxed);
      LIMBO_OBS_COUNT("serve.batches", 1);
      const std::vector<std::string> responses =
          registry_->HandleBatch(batch, &kernel);
      // One send per connection per batch: a connection's responses are
      // consecutive in `order` by construction of the drain loop above.
      size_t i = 0;
      std::string out;
      while (i < order.size()) {
        Conn* c = order[i];
        out.clear();
        for (; i < order.size() && order[i] == c; ++i) {
          out += responses[i];
          out.push_back('\n');
        }
        if (!SendAll(c->fd, out.data(), out.size())) {
          std::lock_guard<std::mutex> lock(mu_);
          c->dead = true;
        }
      }
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (Conn* c : claimed) {
        c->claimed = false;
        if (c->dead) {
          // Peer is gone: the remaining queued requests are unanswerable.
          c->lines.clear();
        } else if (!c->lines.empty()) {
          c->ready = true;
          ready_.push_back(c);
          cv_.notify_one();
        }
      }
    }
  }
}

}  // namespace limbo::serve
