#include "load.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <deque>

namespace limbo::perfbench {
namespace {

constexpr double kNeverUs = 1e12;  // latency charged to a failed request

util::Result<int> ConnectLoopback(int port, bool nonblocking) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return util::Status::IoError("socket: " + std::string(strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const std::string err = strerror(errno);
    ::close(fd);
    return util::Status::IoError("connect: " + err);
  }
  if (nonblocking) {
    const int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  }
  return fd;
}

double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

}  // namespace

bool StepResult::Met(double p99_limit_us) const {
  return !invalid && !backlog_grew && failed == 0 && dropped == 0 &&
         !latency_us.empty() && P99() <= p99_limit_us;
}

util::Result<OpenLoopClient> OpenLoopClient::Connect(int port,
                                                     size_t connections) {
  std::vector<Conn> conns(connections);
  for (size_t i = 0; i < connections; ++i) {
    util::Result<int> fd = ConnectLoopback(port, /*nonblocking=*/true);
    if (!fd.ok()) {
      for (size_t j = 0; j < i; ++j) ::close(conns[j].fd);
      return fd.status();
    }
    conns[i].fd = *fd;
  }
  // The generator sleeps until the next due time with sub-100us precision;
  // the default 50us timer slack would make every wake-up late.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  return OpenLoopClient(std::move(conns));
}

OpenLoopClient::OpenLoopClient(OpenLoopClient&& other) noexcept
    : conns_(std::move(other.conns_)) {
  other.conns_.clear();
}

OpenLoopClient::~OpenLoopClient() {
  for (const Conn& conn : conns_) ::close(conn.fd);
}

StepResult OpenLoopClient::RunStep(double rate, double seconds,
                                   uint64_t first_id,
                                   const RequestLine& request,
                                   const ResponseCheck& check,
                                   double lag_budget_us,
                                   double drain_seconds) {
  StepResult result;
  result.rate = rate;
  const size_t nconn = conns_.size();
  const uint64_t total =
      std::max<uint64_t>(1, static_cast<uint64_t>(rate * seconds + 0.5));
  const double interval_ns = 1e9 / rate;
  const auto start = Clock::now() + std::chrono::milliseconds(1);
  auto due = [&](uint64_t i) {
    return start + std::chrono::nanoseconds(
                       static_cast<int64_t>(static_cast<double>(i) * interval_ns));
  };
  const auto deadline =
      due(total - 1) + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(drain_seconds));

  for (Conn& conn : conns_) {
    for (Pending& p : conn.pending) p.stale = true;
  }

  std::vector<double> lag;
  lag.reserve(total);
  result.latency_us.reserve(total);
  std::vector<double> backlog;  // outstanding requests, sampled each ms
  auto next_sample = start;
  uint64_t next = 0;
  uint64_t outstanding = 0;
  std::string line;
  std::vector<struct pollfd> pfds(nconn);
  while (true) {
    auto now = Clock::now();
    while (next < total && due(next) <= now) {
      Conn& conn = conns_[next % nconn];
      line.clear();
      request(first_id + next, &line);
      line.push_back('\n');
      conn.out += line;
      conn.pending.push_back({first_id + next, due(next), false});
      lag.push_back(Micros(now - due(next)));
      ++next;
      ++outstanding;
    }
    Flush();
    if (now >= next_sample) {
      backlog.push_back(static_cast<double>(outstanding));
      next_sample = now + std::chrono::milliseconds(1);
    }
    if (next == total && outstanding == 0) break;
    if (next == total && now >= deadline) break;

    const auto wake = next < total
                          ? due(next)
                          : std::min(deadline, now + std::chrono::milliseconds(2));
    const auto wait = wake - now;
    struct timespec ts = {0, 0};
    if (wait > std::chrono::microseconds(30)) {
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          wait - std::chrono::microseconds(20))
                          .count();
      ts.tv_sec = static_cast<time_t>(ns / 1000000000);
      ts.tv_nsec = static_cast<long>(ns % 1000000000);
    }
    for (size_t c = 0; c < nconn; ++c) {
      pfds[c].fd = conns_[c].fd;
      pfds[c].events = static_cast<short>(
          POLLIN | (conns_[c].out.empty() ? 0 : POLLOUT));
      pfds[c].revents = 0;
    }
    const int ready = ::ppoll(pfds.data(), nconn, &ts, nullptr);
    if (ready <= 0) continue;
    for (size_t c = 0; c < nconn; ++c) {
      if ((pfds[c].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      outstanding -= Receive(&conns_[c], check, &result);
    }
  }

  result.sent = next;
  result.dropped = outstanding;
  for (uint64_t i = 0; i < outstanding; ++i) {
    result.latency_us.push_back(kNeverUs);
  }
  result.lag_p99_us = Percentile(lag, 0.99);
  result.invalid = result.lag_p99_us > lag_budget_us;
  const size_t third = backlog.size() / 3;
  if (third > 0) {
    double first = 0.0, last = 0.0;
    for (size_t i = 0; i < third; ++i) {
      first += backlog[i];
      last += backlog[backlog.size() - 1 - i];
    }
    first /= static_cast<double>(third);
    last /= static_cast<double>(third);
    result.backlog_grew = last > first + std::max(4.0, rate * 0.5e-3);
  }
  result.backlog_grew = result.backlog_grew || result.dropped > 0;
  return result;
}

uint64_t OpenLoopClient::Receive(Conn* conn, const ResponseCheck& check,
                                 StepResult* result) {
  char chunk[65536];
  while (true) {
    const ssize_t r = ::recv(conn->fd, chunk, sizeof(chunk), MSG_DONTWAIT);
    if (r > 0) {
      conn->in.append(chunk, static_cast<size_t>(r));
      continue;
    }
    if (r < 0 && errno == EINTR) continue;
    break;
  }
  // ACK every response at once (the flag clears itself after a read).
  // The server leaves Nagle on, so a delayed client ACK would hold each
  // response until the connection's next request, and runs would flip
  // between that mode and the normal one.
  const int one = 1;
  ::setsockopt(conn->fd, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof(one));
  const auto received_at = Clock::now();
  uint64_t answered = 0;
  size_t begin = 0;
  for (size_t nl; (nl = conn->in.find('\n', begin)) != std::string::npos;
       begin = nl + 1) {
    if (conn->pending.empty()) {
      ++result->failed;  // a response nobody asked for
      continue;
    }
    const Pending p = conn->pending.front();
    conn->pending.pop_front();
    if (p.stale) continue;  // owed by an earlier step, already dropped
    ++answered;
    const std::string_view response(conn->in.data() + begin, nl - begin);
    if (check(p.id, p.due, response)) {
      result->latency_us.push_back(Micros(received_at - p.due));
    } else {
      ++result->failed;
      result->latency_us.push_back(kNeverUs);
    }
  }
  conn->in.erase(0, begin);
  return answered;
}

void OpenLoopClient::Flush() {
  for (Conn& conn : conns_) {
    while (conn.out_pos < conn.out.size()) {
      const ssize_t w =
          ::send(conn.fd, conn.out.data() + conn.out_pos,
                 conn.out.size() - conn.out_pos, MSG_NOSIGNAL | MSG_DONTWAIT);
      if (w > 0) {
        conn.out_pos += static_cast<size_t>(w);
      } else if (w < 0 && errno == EINTR) {
        continue;
      } else {
        break;  // EAGAIN (retry when writable) or a dead peer (drops)
      }
    }
    if (conn.out_pos == conn.out.size()) {
      conn.out.clear();
      conn.out_pos = 0;
    }
  }
}

util::Result<LineClient> LineClient::Connect(int port) {
  LIMBO_ASSIGN_OR_RETURN(int fd, ConnectLoopback(port, /*nonblocking=*/false));
  return LineClient(fd);
}

LineClient::LineClient(LineClient&& other) noexcept
    : fd_(other.fd_), buffered_(std::move(other.buffered_)) {
  other.fd_ = -1;
}

LineClient::~LineClient() {
  if (fd_ >= 0) ::close(fd_);
}

util::Result<std::string> LineClient::Call(const std::string& line) {
  const std::string framed = line + "\n";
  size_t sent = 0;
  while (sent < framed.size()) {
    const ssize_t w = ::send(fd_, framed.data() + sent, framed.size() - sent,
                             MSG_NOSIGNAL);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return util::Status::IoError("send failed");
    sent += static_cast<size_t>(w);
  }
  char chunk[4096];
  while (true) {
    const size_t nl = buffered_.find('\n');
    if (nl != std::string::npos) {
      std::string response = buffered_.substr(0, nl);
      buffered_.erase(0, nl + 1);
      return response;
    }
    const ssize_t r = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return util::Status::IoError("connection closed");
    buffered_.append(chunk, static_cast<size_t>(r));
  }
}

}  // namespace limbo::perfbench
