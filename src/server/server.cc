#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstring>

#include "common/logging.h"
#include "common/stats.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "sql/executor.h"
#include "sql/parser.h"

namespace tsviz {

namespace {

// Writes the whole buffer, retrying on EINTR and short writes
// (thread-per-connection mode only; the event loop buffers instead).
bool WriteAll(int fd, const std::string& data) {
  size_t done = 0;
  while (done < data.size()) {
    ssize_t n = ::send(fd, data.data() + done, data.size() - done,
                       MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<size_t>(n);
  }
  return true;
}

obs::Counter& ConnectionsCounter() {
  static obs::Counter& counter = obs::GetCounter(
      "server_connections_total", "Client connections accepted");
  return counter;
}

// The event loop's batch predicate: a cheap prefix check for INSERT (any
// case, leading whitespace allowed). Runs on the loop thread for every
// pending statement, so no parsing here — the worker-side batch executor
// handles whatever actually arrives.
bool LooksLikeInsert(const std::string& line) {
  const size_t start = line.find_first_not_of(" \t");
  if (start == std::string::npos || line.size() - start < 6) return false;
  static constexpr char kInsert[] = "insert";
  for (size_t i = 0; i < 6; ++i) {
    const char c = static_cast<char>(
        std::tolower(static_cast<unsigned char>(line[start + i])));
    if (c != kInsert[i]) return false;
  }
  return true;
}

}  // namespace

SqlServer::Reply SqlServer::ExecuteLine(const std::string& line,
                                        double queue_wait_millis) {
  static obs::Counter& queries = obs::GetCounter(
      "server_queries_total", "SQL statements executed");
  static obs::Counter& errors = obs::GetCounter(
      "server_query_errors_total", "SQL statements that returned an error");
  static obs::Histogram& query_millis = obs::GetHistogram(
      "server_query_millis", "Per-statement latency as seen by the server");

  if (line == "quit" || line == "QUIT") return Reply{"", /*close=*/true};

  queries.Inc();
  Timer timer;
  std::string reply;
  auto parsed = sql::ParseStatement(line);
  if (!parsed.ok()) {
    errors.Inc();
    reply = "ERROR: " + parsed.status().ToString() + "\n";
  } else {
    const bool is_select =
        std::holds_alternative<sql::SelectStatement>(*parsed);
    // Reads run lock-free against the immutable chunk snapshot; only write
    // statements serialize on the storage single-writer contract.
    // Statements route through the flight recorder, so the history a client
    // builds up is visible in SHOW QUERIES afterwards; the queue-wait time
    // rides along so traced statements show a net_queue_wait span.
    sql::RecordContext context;
    context.net_queue_wait_millis = queue_wait_millis;
    Result<sql::ResultSet> result = [&] {
      if (sql::IsWriteStatement(*parsed)) {
        std::lock_guard<std::mutex> lock(write_mutex_);
        return sql::ExecuteRecorded(db_, *parsed, line, nullptr, context);
      }
      return sql::ExecuteRecorded(db_, *parsed, line, nullptr, context);
    }();
    if (result.ok()) {
      reply = result->ToCsv();
      if (is_select && db_->IsReplica()) {
        // Follower reads advertise their staleness in-band: clients see
        // exactly how old the answer may be without a second round trip.
        reply += "replica_lag_ms," +
                 std::to_string(db_->replication_lag_ms()) + "\n";
      }
    } else {
      errors.Inc();
      reply = "ERROR: " + result.status().ToString() +
              (result.status().retryable() ? " (retryable)" : "") + "\n";
    }
  }
  query_millis.Observe(timer.ElapsedMillis());
  reply += "\n";  // blank-line terminator
  return Reply{std::move(reply), /*close=*/false};
}

std::vector<net::Response> SqlServer::ExecuteBatch(
    const std::vector<net::Request>& requests) {
  static obs::Counter& queries = obs::GetCounter(
      "server_queries_total", "SQL statements executed");
  static obs::Counter& errors = obs::GetCounter(
      "server_query_errors_total", "SQL statements that returned an error");
  static obs::Histogram& query_millis = obs::GetHistogram(
      "server_query_millis", "Per-statement latency as seen by the server");

  std::vector<std::string> lines;
  lines.reserve(requests.size());
  for (const net::Request& request : requests) lines.push_back(request.line);
  sql::RecordContext context;
  context.net_queue_wait_millis =
      requests.empty() ? -1.0 : requests.front().queue_wait_millis;

  Timer timer;
  std::vector<Result<sql::ResultSet>> results;
  {
    // Every line in the burst matched the INSERT prefix predicate — all
    // writes — so one write_mutex_ hold covers the whole batch (a
    // stray non-write line would just execute under the lock, harmlessly).
    std::lock_guard<std::mutex> lock(write_mutex_);
    results = sql::ExecuteInsertBatch(db_, lines, context);
  }
  // All replies of the batch become ready together, so each statement's
  // latency is the whole batch's.
  const double batch_millis = timer.ElapsedMillis();

  std::vector<net::Response> responses;
  responses.reserve(results.size());
  for (Result<sql::ResultSet>& result : results) {
    queries.Inc();
    std::string payload;
    if (result.ok()) {
      payload = result->ToCsv();
    } else {
      errors.Inc();
      payload = "ERROR: " + result.status().ToString() +
                (result.status().retryable() ? " (retryable)" : "") + "\n";
    }
    payload += "\n";  // blank-line terminator
    query_millis.Observe(batch_millis);
    responses.push_back(net::Response{std::move(payload), /*close=*/false});
  }
  return responses;
}

void SqlServer::RecordConnectionOpened() {
  ConnectionsCounter().Inc();
  obs::RecordedEvent event;
  event.kind = obs::EventKind::kConnection;
  event.statement = "connection opened";
  event.status = "OK";
  obs::FlightRecorder::Instance().Record(std::move(event));
}

void SqlServer::RecordConnectionClosed(uint64_t statements, double millis) {
  obs::RecordedEvent event;
  event.kind = obs::EventKind::kConnection;
  event.statement = "connection closed";
  event.status = "OK";
  event.millis = millis;
  event.rows = statements;
  obs::FlightRecorder::Instance().Record(std::move(event));
}

Status SqlServer::Start(int port) {
  if (net_server_ != nullptr || listen_fd_ >= 0) {
    return Status::InvalidArgument("already started");
  }
  if (mode_ == ServerMode::kThreadPerConn) {
    TSVIZ_RETURN_IF_ERROR(StartThreadPerConn(port));
  } else {
    net::NetServerOptions options;
    options.listen_backlog = db_->listen_backlog();
    options.max_connections = [db = db_] { return db->max_connections(); };
    options.idle_timeout_ms = [db = db_] { return db->idle_timeout_ms(); };
    options.on_open = [this] { RecordConnectionOpened(); };
    options.on_close = [this](uint64_t requests, double millis) {
      RecordConnectionClosed(requests, millis);
    };
    // Worker-side batch accumulation: consecutive pipelined INSERTs ride
    // one work item and coalesce into batched store writes.
    options.batchable = [](const std::string& line) {
      return LooksLikeInsert(line);
    };
    options.batch_handler = [this](const std::vector<net::Request>& batch) {
      return ExecuteBatch(batch);
    };
    auto server = std::make_unique<net::NetServer>(
        std::move(options), [this](const net::Request& request) {
          Reply reply = ExecuteLine(request.line, request.queue_wait_millis);
          return net::Response{std::move(reply.payload), reply.close};
        });
    Status status = server->Start(port);
    if (!status.ok()) return status;
    port_ = server->port();
    net_server_ = std::move(server);
  }
  // The background maintenance scheduler shares the server's lifecycle:
  // auto-flush/compaction/TTL run while the server accepts queries and are
  // quiesced before the listener is torn down.
  db_->StartMaintenance();
  TSVIZ_INFO << "sql server listening on 127.0.0.1:" << port_
             << (mode_ == ServerMode::kEventLoop ? " (event loop)"
                                                 : " (thread per conn)");
  return Status::OK();
}

void SqlServer::Stop() {
  if (net_server_ != nullptr) {
    db_->StopMaintenance();
    net_server_->Stop();
    net_server_.reset();
    return;
  }
  if (listen_fd_ < 0 && !accept_thread_.joinable()) return;
  db_->StopMaintenance();
  stopping_ = true;
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (accept_thread_.joinable()) accept_thread_.join();

  std::vector<Worker> workers;
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    for (Worker& worker : workers_) {
      ::shutdown(worker.fd, SHUT_RDWR);  // unblocks the handler's recv
    }
    workers = std::move(workers_);
    workers_.clear();
  }
  for (Worker& worker : workers) {
    if (worker.thread.joinable()) worker.thread.join();
    ::close(worker.fd);
  }
}

// --- thread-per-connection baseline ---

Status SqlServer::StartThreadPerConn(int port) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  int reuse = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IoError(std::string("bind: ") + std::strerror(errno));
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) <
      0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IoError("getsockname failed");
  }
  port_ = ntohs(addr.sin_port);
  if (::listen(listen_fd_, db_->listen_backlog()) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IoError(std::string("listen: ") + std::strerror(errno));
  }
  stopping_ = false;
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void SqlServer::ReapFinishedWorkersLocked() {
  for (auto it = workers_.begin(); it != workers_.end();) {
    if (it->done->load()) {
      it->thread.join();
      ::close(it->fd);
      it = workers_.erase(it);
    } else {
      ++it;
    }
  }
}

void SqlServer::AcceptLoop() {
  while (!stopping_.load()) {
    int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) {
      if (errno == EINTR) continue;
      break;  // listener closed by Stop()
    }
    std::lock_guard<std::mutex> lock(state_mutex_);
    if (stopping_.load()) {
      ::close(client);
      break;
    }
    ReapFinishedWorkersLocked();
    Worker worker;
    worker.fd = client;
    worker.done = std::make_shared<std::atomic<bool>>(false);
    worker.thread = std::thread([this, client, done = worker.done] {
      HandleClient(client);
      done->store(true);
    });
    workers_.push_back(std::move(worker));
  }
}

void SqlServer::HandleClient(int fd) {
  RecordConnectionOpened();
  Timer connection_timer;
  uint64_t statements = 0;

  std::string buffer;
  char chunk[4096];
  while (!stopping_.load()) {
    size_t newline = buffer.find('\n');
    if (newline == std::string::npos) {
      ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;  // client gone or shutdown
      buffer.append(chunk, static_cast<size_t>(n));
      continue;
    }
    std::string line = buffer.substr(0, newline);
    buffer.erase(0, newline + 1);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;

    Reply reply = ExecuteLine(line, /*queue_wait_millis=*/-1.0);
    if (reply.close) break;
    ++statements;
    if (!WriteAll(fd, reply.payload)) break;
  }
  RecordConnectionClosed(statements, connection_timer.ElapsedMillis());
  // The fd stays open: the server owns it and closes it at reap or Stop.
}

}  // namespace tsviz
