#include "client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <deque>
#include <thread>

namespace perfbench {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

constexpr size_t kMaxErrors = 5;
// How long a phase waits for replies after its end before counting the
// rest as dropped.
constexpr double kDrainSeconds = 30.0;
// Every kSampleEvery-th read reply is kept for the correctness check, up to
// kMaxSamples per connection and phase.
constexpr size_t kSampleEvery = 16;
constexpr size_t kMaxSamples = 32;

// One non-blocking client socket with its inbound buffer.
class Conn {
 public:
  ~Conn() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool Connect(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(port));
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
        0) {
      return false;
    }
    return ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK) == 0;
  }

  // Sends as much of out[*off..] as the socket takes. False on error.
  bool Send(const std::string& out, size_t* off) {
    while (*off < out.size()) {
      const ssize_t n = ::send(fd_, out.data() + *off, out.size() - *off,
                               MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return errno == EAGAIN || errno == EWOULDBLOCK;
      }
      *off += static_cast<size_t>(n);
    }
    return true;
  }

  // Waits up to `timeout_s` for the socket to become readable (or
  // writable when `want_write`), then drains what arrived. False when the
  // peer closed or failed.
  bool Pump(double timeout_s, bool want_write) {
    pollfd pfd{fd_, static_cast<short>(POLLIN | (want_write ? POLLOUT : 0)),
               0};
    timespec ts;
    timeout_s = std::max(0.0, timeout_s);
    ts.tv_sec = static_cast<time_t>(timeout_s);
    ts.tv_nsec = static_cast<long>((timeout_s - ts.tv_sec) * 1e9);
    if (::ppoll(&pfd, 1, &ts, nullptr) < 0 && errno != EINTR) return false;
    if ((pfd.revents & (POLLIN | POLLHUP | POLLERR)) == 0) return true;
    char buf[65536];
    while (true) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n > 0) {
        in_.append(buf, static_cast<size_t>(n));
        continue;
      }
      if (n == 0) return false;
      if (errno == EINTR) continue;
      return errno == EAGAIN || errno == EWOULDBLOCK;
    }
  }

  // Pops one complete reply (everything up to its blank-line terminator).
  bool PopReply(std::string* reply) {
    const size_t end = in_.find("\n\n", scan_);
    if (end == std::string::npos) {
      scan_ = in_.empty() ? 0 : in_.size() - 1;
      return false;
    }
    reply->assign(in_, 0, end + 1);
    in_.erase(0, end + 2);
    scan_ = 0;
    return true;
  }

 private:
  int fd_ = -1;
  std::string in_;
  size_t scan_ = 0;
};

void NoteError(ConnResult* result, const std::string& message) {
  ++result->failed;
  if (result->errors.size() < kMaxErrors) result->errors.push_back(message);
}

// Books one reply. Returns true when the statement succeeded.
bool Book(const Stmt& stmt, std::string reply,
          double at, double latency_ms, bool in_window, ConnResult* result) {
  if (reply.rfind("ERROR", 0) == 0) {
    NoteError(result, stmt.text.substr(0, 80) + " -> " + reply);
    return false;
  }
  if (stmt.kind == Stmt::kWrite) {
    ++result->inserts;
    const std::string want = "series,points\n" + stmt.series + "," +
                             std::to_string(stmt.points.size()) + "\n";
    if (reply != want) {
      NoteError(result, "bad INSERT ack: " + reply.substr(0, 80));
      return false;
    }
    result->write_ms.emplace_back(at, latency_ms);
    if (in_window) {
      result->completions.emplace_back(at + latency_ms / 1e3,
                                       stmt.points.size());
    }
    Stmt acked;
    acked.kind = Stmt::kWrite;
    acked.series = stmt.series;
    acked.points = stmt.points;
    result->acked.push_back(std::move(acked));
    return true;
  }
  // Follower replies end with a replica_lag_ms row.
  const size_t lag = reply.rfind("replica_lag_ms,");
  if (lag != std::string::npos && (lag == 0 || reply[lag - 1] == '\n')) {
    result->lag_ms.push_back(std::strtod(reply.c_str() + lag + 15, nullptr));
    reply.resize(lag);
  }
  result->read_ms.emplace_back(at, latency_ms);
  if (in_window) result->completions.emplace_back(at + latency_ms / 1e3, 0);
  if ((result->read_ms.size() - 1) % kSampleEvery == 0 &&
      result->samples.size() < kMaxSamples) {
    result->samples.push_back(
        Sample{stmt, std::move(reply), result->acked.size()});
  }
  return true;
}

// Waits (sleeping, then spinning for the last stretch) until `wall`.
void SleepUntil(double wall) {
  while (true) {
    const double left = wall - NowSeconds();
    if (left <= 0) return;
    if (left > 0.002) {
      std::this_thread::sleep_for(std::chrono::duration<double>(left - 0.001));
    }
  }
}

}  // namespace

ConnResult RunOpenLoop(const PhaseOptions& options,
                       const std::vector<Scheduled>& schedule,
                       double start_wall) {
  ConnResult result;
  Conn conn;
  if (!conn.Connect(options.port)) {
    result.attempted = schedule.size();
    NoteError(&result, "connect failed");
    result.failed = schedule.size();
    return result;
  }
  SleepUntil(start_wall);
  std::string out;
  size_t out_off = 0;
  std::deque<size_t> pending;
  size_t next = 0;
  bool backlog_taken = false;
  bool alive = true;
  std::string reply;
  while (alive) {
    double now = NowSeconds() - start_wall;
    while (next < schedule.size() && schedule[next].at <= now) {
      result.late_ms.push_back((now - schedule[next].at) * 1e3);
      out += schedule[next].stmt.text;
      out += '\n';
      pending.push_back(next);
      ++result.attempted;
      ++next;
    }
    if (!conn.Send(out, &out_off)) break;
    if (out_off == out.size()) {
      out.clear();
      out_off = 0;
    }
    if (!backlog_taken && now >= options.seconds) {
      result.backlog = pending.size() + (schedule.size() - next);
      backlog_taken = true;
    }
    if (next == schedule.size() && pending.empty()) break;
    if (now > options.seconds + kDrainSeconds) break;
    const double wait =
        next < schedule.size() ? std::min(0.05, schedule[next].at - now)
                               : 0.05;
    alive = conn.Pump(wait, !out.empty());
    now = NowSeconds() - start_wall;
    while (conn.PopReply(&reply)) {
      if (pending.empty()) {
        NoteError(&result, "unexpected reply");
        alive = false;
        break;
      }
      const Scheduled& s = schedule[pending.front()];
      pending.pop_front();
      Book(s.stmt, std::move(reply), s.at, (now - s.at) * 1e3,
           /*in_window=*/false, &result);
    }
  }
  if (!backlog_taken) {
    result.backlog = pending.size() + (schedule.size() - next);
  }
  const uint64_t dropped = pending.size() + (schedule.size() - next);
  if (dropped > 0) {
    result.attempted += schedule.size() - next;
    NoteError(&result, std::to_string(dropped) + " statements unanswered");
    result.failed += dropped - 1;
  }
  return result;
}

ConnResult RunClosedLoop(const PhaseOptions& options, StreamGen* gen,
                         Pacing* pacing, bool paced, double start_wall) {
  ConnResult result;
  Conn conn;
  if (!conn.Connect(options.port)) {
    result.attempted = 1;
    NoteError(&result, "connect failed");
    return result;
  }
  SleepUntil(start_wall);
  uint64_t sent = 0;
  std::string reply;
  while (true) {
    double now = NowSeconds() - start_wall;
    if (now >= options.seconds) break;
    if (paced && static_cast<double>(sent) >=
                     pacing->others_done.load() * pacing->share /
                         (1.0 - pacing->share)) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      continue;
    }
    const Stmt stmt = gen->Next();
    ++sent;
    const std::string out = stmt.text + "\n";
    size_t off = 0;
    const double sent_at = now;
    ++result.attempted;
    bool answered = false;
    bool alive = true;
    while (alive && now < options.seconds + kDrainSeconds) {
      if (!conn.Send(out, &off)) {
        alive = false;
        break;
      }
      alive = conn.Pump(0.05, off < out.size());
      now = NowSeconds() - start_wall;
      if (conn.PopReply(&reply)) {
        answered = true;
        Book(stmt, std::move(reply), sent_at,
             (now - sent_at) * 1e3, now < options.seconds, &result);
        if (!paced) pacing->others_done.fetch_add(1);
        break;
      }
    }
    if (!answered) {
      NoteError(&result, "statement unanswered: " + stmt.text.substr(0, 80));
      break;
    }
  }
  return result;
}

}  // namespace perfbench
