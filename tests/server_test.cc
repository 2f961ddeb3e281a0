#include "server/server.h"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/recorder.h"
#include "sql/executor.h"
#include "sql/parser.h"
#include "test_util.h"

namespace tsviz {
namespace {

// Blocking line-protocol client for the tests.
class TestClient {
 public:
  explicit TestClient(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(port));
    EXPECT_EQ(
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0)
        << std::strerror(errno);
  }
  ~TestClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  void Send(const std::string& line) {
    std::string data = line + "\n";
    ASSERT_EQ(::send(fd_, data.data(), data.size(), 0),
              static_cast<ssize_t>(data.size()));
  }

  // Reads until the blank-line terminator; returns the payload without it.
  // Pipelined replies may share one recv, so leftover bytes stay buffered
  // for the next call.
  std::string ReadReply() {
    char chunk[4096];
    while (buffer_.find("\n\n") == std::string::npos) {
      ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) {
        std::string rest = std::move(buffer_);
        buffer_.clear();
        return rest;
      }
      buffer_.append(chunk, static_cast<size_t>(n));
    }
    size_t end = buffer_.find("\n\n");
    std::string reply = buffer_.substr(0, end + 1);
    buffer_.erase(0, end + 2);
    return reply;
  }

  int fd() const { return fd_; }

 private:
  int fd_ = -1;
  std::string buffer_;  // bytes received past the last returned reply
};

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatabaseConfig config;
    config.root_dir = dir_.path();
    config.series_defaults.points_per_chunk = 50;
    config.series_defaults.memtable_flush_threshold = 50;
    auto db = Database::Open(config);
    ASSERT_TRUE(db.ok());
    db_ = std::move(db).value();
    for (int i = 0; i < 100; ++i) {
      ASSERT_OK(db_->Write("s1", i * 10, i * 1.0));
    }
    ASSERT_OK(db_->FlushAll());
    server_ = std::make_unique<SqlServer>(db_.get());
    ASSERT_OK(server_->Start(0));
    ASSERT_GT(server_->port(), 0);
  }

  TempDir dir_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<SqlServer> server_;
};

TEST_F(ServerTest, AnswersSqlOverTheWire) {
  TestClient client(server_->port());
  client.Send("SELECT COUNT(v) FROM s1 GROUP BY SPANS(2)");
  std::string reply = client.ReadReply();
  EXPECT_NE(reply.find("span_start,COUNT(v)"), std::string::npos);
  EXPECT_NE(reply.find(",50"), std::string::npos);
}

TEST_F(ServerTest, MultipleQueriesOnOneConnection) {
  TestClient client(server_->port());
  client.Send("SELECT COUNT(v) FROM s1");
  std::string first = client.ReadReply();
  EXPECT_NE(first.find("100"), std::string::npos);
  client.Send("SELECT MAX_VALUE(v) FROM s1");
  std::string second = client.ReadReply();
  EXPECT_NE(second.find("99"), std::string::npos);
}

TEST_F(ServerTest, ErrorsAreReportedInBand) {
  TestClient client(server_->port());
  client.Send("SELECT FROM nothing");
  std::string reply = client.ReadReply();
  EXPECT_EQ(reply.rfind("ERROR:", 0), 0u) << reply;
  // The connection survives an error.
  client.Send("SELECT COUNT(v) FROM s1");
  EXPECT_NE(client.ReadReply().find("100"), std::string::npos);
}

TEST_F(ServerTest, ConcurrentClients) {
  TestClient a(server_->port());
  TestClient b(server_->port());
  a.Send("SELECT COUNT(v) FROM s1");
  b.Send("SELECT MIN_VALUE(v) FROM s1");
  EXPECT_NE(a.ReadReply().find("100"), std::string::npos);
  EXPECT_NE(b.ReadReply().find(",0"), std::string::npos);
}

TEST_F(ServerTest, QueriesAdvanceServerMetrics) {
  obs::Counter& queries = obs::GetCounter("server_queries_total");
  obs::Counter& errors = obs::GetCounter("server_query_errors_total");
  obs::Histogram& latency = obs::GetHistogram("server_query_millis");
  uint64_t queries_before = queries.value();
  uint64_t errors_before = errors.value();
  uint64_t latency_before = latency.count();

  TestClient client(server_->port());
  client.Send("SELECT COUNT(v) FROM s1");
  EXPECT_NE(client.ReadReply().find("100"), std::string::npos);
  client.Send("SELECT bogus FROM nowhere");
  EXPECT_EQ(client.ReadReply().rfind("ERROR:", 0), 0u);

  EXPECT_EQ(queries.value(), queries_before + 2);
  EXPECT_EQ(errors.value(), errors_before + 1);
  EXPECT_EQ(latency.count(), latency_before + 2);

  // SHOW METRICS over the wire reports the same counters as Prometheus
  // text, with the CSV header line doubling as a comment.
  client.Send("SHOW METRICS");
  std::string reply = client.ReadReply();
  EXPECT_EQ(reply.rfind("#", 0), 0u) << reply.substr(0, 60);
  EXPECT_NE(reply.find("server_queries_total"), std::string::npos);
  EXPECT_NE(reply.find("# TYPE server_query_millis histogram"),
            std::string::npos);
}

// A pipelined burst of single-point INSERTs runs as one coalesced batch.
// Every reply of the batch becomes ready when the batch finishes, so each
// statement observes the batch's whole latency, not the batch mean.
TEST_F(ServerTest, CoalescedInsertsEachObserveTheBatchLatency) {
  constexpr int kStatements = 32;
  obs::Histogram& latency = obs::GetHistogram("server_query_millis");
  obs::Counter& accumulated = obs::GetCounter("batch_net_accumulated_total");
  const uint64_t count_before = latency.count();
  const double sum_before = latency.sum();
  std::vector<uint64_t> buckets_before;
  for (size_t i = 0; i < obs::Histogram::kNumBuckets; ++i) {
    buckets_before.push_back(latency.BucketCount(i));
  }
  const uint64_t accumulated_before = accumulated.value();

  std::string burst;
  for (int i = 1; i <= kStatements; ++i) {
    burst += "INSERT INTO burst VALUES (" + std::to_string(i) + ", 1.5)\n";
  }
  TestClient client(server_->port());
  ASSERT_EQ(::send(client.fd(), burst.data(), burst.size(), 0),
            static_cast<ssize_t>(burst.size()));
  for (int i = 0; i < kStatements; ++i) {
    EXPECT_NE(client.ReadReply().find("burst,1"), std::string::npos) << i;
  }
  // One send, one work item: the statements ran as a single batch.
  ASSERT_EQ(accumulated.value() - accumulated_before, kStatements - 1u);

  EXPECT_EQ(latency.count() - count_before, static_cast<uint64_t>(kStatements));
  // All observations are the same value: one bucket took all of them.
  int buckets_hit = 0;
  for (size_t i = 0; i < obs::Histogram::kNumBuckets; ++i) {
    const uint64_t added = latency.BucketCount(i) - buckets_before[i];
    if (added == 0) continue;
    ++buckets_hit;
    EXPECT_EQ(added, static_cast<uint64_t>(kStatements)) << "bucket " << i;
  }
  EXPECT_EQ(buckets_hit, 1);
  // The flight recorder stamps every statement of the run with the latency
  // of the coalesced store write. The batch's server-side clock encloses
  // that write, so every observation is at least that long.
  const std::vector<obs::RecordedEvent> events =
      obs::FlightRecorder::Instance().Snapshot(kStatements,
                                               obs::EventKind::kQuery);
  ASSERT_EQ(events.size(), static_cast<size_t>(kStatements));
  const double write_millis = events.front().millis;
  for (const obs::RecordedEvent& event : events) {
    EXPECT_EQ(event.millis, write_millis) << event.statement;
  }
  EXPECT_GE((latency.sum() - sum_before) / kStatements,
            write_millis * (1 - 1e-9));
}

TEST_F(ServerTest, MaintenanceStatementsWorkOverTheWire) {
  // Start() bound the maintenance scheduler to the server lifecycle.
  EXPECT_TRUE(db_->maintenance().running());

  TestClient client(server_->port());
  ASSERT_OK(db_->Write("s1", 5000, 1.0));
  client.Send("FLUSH s1");
  std::string reply = client.ReadReply();
  EXPECT_NE(reply.find("series,action,status"), std::string::npos) << reply;
  EXPECT_NE(reply.find("s1,flush,OK"), std::string::npos) << reply;

  client.Send("COMPACT");
  reply = client.ReadReply();
  EXPECT_NE(reply.find("s1,compact,OK"), std::string::npos) << reply;

  client.Send("SHOW JOBS");
  reply = client.ReadReply();
  EXPECT_NE(reply.find("id,key,type,state"), std::string::npos) << reply;
  // The periodic policy tick is registered (and likely pending or running).
  EXPECT_NE(reply.find("tick"), std::string::npos) << reply;

  client.Send("SHOW SERIES");
  reply = client.ReadReply();
  EXPECT_NE(
      reply.find(
          "series,partition_interval_ms,partitions,files,chunks,data_start"),
      std::string::npos)
      << reply;
  EXPECT_NE(reply.find("s1,"), std::string::npos) << reply;

  client.Send("FLUSH no_such_series");
  EXPECT_EQ(client.ReadReply().rfind("ERROR:", 0), 0u);

  server_->Stop();
  EXPECT_FALSE(db_->maintenance().running());
}

TEST_F(ServerTest, StopIsIdempotentAndUnblocksClients) {
  TestClient client(server_->port());
  server_->Stop();
  server_->Stop();  // idempotent
  // After Stop the connection is shut down: a write may fail outright and a
  // read must terminate (empty reply), never hang.
  std::string data = "SELECT COUNT(v) FROM s1\n";
  (void)::send(client.fd(), data.data(), data.size(), MSG_NOSIGNAL);
  std::string reply = client.ReadReply();
  EXPECT_TRUE(reply.empty() || reply.rfind("ERROR", 0) == 0) << reply;
}

TEST_F(ServerTest, PipelinedStatementsInOneSendAnswerInOrder) {
  TestClient client(server_->port());
  std::string batch =
      "SELECT COUNT(v) FROM s1\n"
      "SELECT MIN_VALUE(v) FROM s1\n"
      "SELECT MAX_VALUE(v) FROM s1\n";
  ASSERT_EQ(::send(client.fd(), batch.data(), batch.size(), 0),
            static_cast<ssize_t>(batch.size()));
  EXPECT_NE(client.ReadReply().find("100"), std::string::npos);
  EXPECT_NE(client.ReadReply().find(",0"), std::string::npos);
  EXPECT_NE(client.ReadReply().find("99"), std::string::npos);
}

// Repeats of one SELECT are result-cache hits: the first renders the
// cached entry's reply text, the next ones send it as is.
TEST_F(ServerTest, RepeatedSelectRepliesAreByteIdentical) {
  TestClient client(server_->port());
  const std::string statement =
      "SELECT M4(v) FROM s1 WHERE time >= 0 AND time < 1000 GROUP BY "
      "SPANS(9)";
  std::vector<std::string> replies;
  for (int i = 0; i < 3; ++i) {
    client.Send(statement);
    replies.push_back(client.ReadReply());
  }
  EXPECT_NE(replies[0].find("span_start,FIRST_TIME(v)"), std::string::npos)
      << replies[0];
  EXPECT_EQ(replies[1], replies[0]);
  EXPECT_EQ(replies[2], replies[0]);
  EXPECT_EQ(db_->result_cache().hits(), 2u);
}

// Four connections hit one cached entry whose reply text is not rendered
// yet, so the first hits race to render and keep it. Every reply must be
// the uncached reply. Labeled `cache` so CI re-runs it under tsan.
TEST_F(ServerTest, ConcurrentHitsOnAnUnrenderedEntryAgree) {
  const std::string statement =
      "SELECT M4(v) FROM s1 WHERE time >= 0 AND time < 1000 GROUP BY "
      "SPANS(13)";
  ASSERT_OK_AND_ASSIGN(sql::Statement parsed,
                       sql::ParseStatement(statement));
  ASSERT_OK_AND_ASSIGN(TsStore * store, db_->GetSeries("s1"));
  ASSERT_OK_AND_ASSIGN(
      sql::ResultSet uncached,
      sql::ExecuteSelect(*store, std::get<sql::SelectStatement>(parsed)));
  const std::string want = uncached.ToCsv();
  ASSERT_OK(sql::ExecuteQuery(db_.get(), statement).status());  // a miss

  constexpr int kClients = 4;
  constexpr int kRepeats = 200;
  std::vector<int> mismatches(kClients, 0);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      TestClient client(server_->port());
      for (int r = 0; r < kRepeats; ++r) {
        client.Send(statement);
        if (client.ReadReply() != want) ++mismatches[c];
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(mismatches[c], 0) << "client " << c;
  }
  EXPECT_EQ(db_->result_cache().hits(),
            static_cast<uint64_t>(kClients * kRepeats));
}

TEST_F(ServerTest, InsertOverTheWire) {
  TestClient client(server_->port());
  client.Send("INSERT INTO wired VALUES (10, 1.5), (20, 2.5), (30, -1)");
  std::string reply = client.ReadReply();
  EXPECT_NE(reply.find("series,points"), std::string::npos) << reply;
  EXPECT_NE(reply.find("wired,3"), std::string::npos) << reply;

  // Inserted points buffer in the memtable; FLUSH makes them queryable.
  client.Send("FLUSH wired");
  EXPECT_NE(client.ReadReply().find("wired,flush,OK"), std::string::npos);
  client.Send("SELECT COUNT(v) FROM wired");
  EXPECT_NE(client.ReadReply().find("3"), std::string::npos);
  client.Send("SELECT MAX_VALUE(v) FROM wired");
  EXPECT_NE(client.ReadReply().find("2.5"), std::string::npos);

  client.Send("INSERT INTO wired VALUES (1.5, 2)");  // non-integer timestamp
  EXPECT_EQ(client.ReadReply().rfind("ERROR:", 0), 0u);
}

TEST_F(ServerTest, MaxConnectionsRejectsWithBusyError) {
  TestClient a(server_->port());
  a.Send("SET max_connections = 1");
  EXPECT_NE(a.ReadReply().find("max_connections"), std::string::npos);

  // `a` holds the only slot; the newcomer gets the in-band busy error.
  TestClient b(server_->port());
  EXPECT_EQ(b.ReadReply(), "ERROR: server busy\n");

  a.Send("SET max_connections = 1024");  // restore for the other tests
  EXPECT_NE(a.ReadReply().find("1024"), std::string::npos);
}

TEST_F(ServerTest, NetworkKnobsAreValidated) {
  TestClient client(server_->port());
  client.Send("SET listen_backlog = 0");
  EXPECT_EQ(client.ReadReply().rfind("ERROR:", 0), 0u);
  client.Send("SET listen_backlog = -5");
  EXPECT_EQ(client.ReadReply().rfind("ERROR:", 0), 0u);
  client.Send("SET listen_backlog = 2.5");
  EXPECT_EQ(client.ReadReply().rfind("ERROR:", 0), 0u);
  client.Send("SET listen_backlog = 128");
  EXPECT_NE(client.ReadReply().find("listen_backlog,128"), std::string::npos);
  client.Send("SET max_connections = 0");
  EXPECT_EQ(client.ReadReply().rfind("ERROR:", 0), 0u);
  EXPECT_EQ(db_->listen_backlog(), 128);
}

TEST(ServerLifecycleTest, ThreadPerConnModeServesTheSameProtocol) {
  TempDir dir;
  DatabaseConfig config;
  config.root_dir = dir.path();
  auto db = Database::Open(config);
  ASSERT_TRUE(db.ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_OK((*db)->Write("s1", i, i * 1.0));
  }
  ASSERT_OK((*db)->FlushAll());
  SqlServer server(db->get(), ServerMode::kThreadPerConn);
  ASSERT_OK(server.Start(0));
  TestClient client(server.port());
  client.Send("SELECT COUNT(v) FROM s1");
  EXPECT_NE(client.ReadReply().find("10"), std::string::npos);
  client.Send("INSERT INTO s1 VALUES (100, 42)");
  EXPECT_NE(client.ReadReply().find("s1,1"), std::string::npos);
  server.Stop();
}

// A follower's cached replies still end with their own replica_lag_ms row:
// the lag is appended per reply, never kept in the cached text.
TEST(ServerReplicaTest, CachedFollowerRepliesEndWithTheLagRow) {
  TempDir primary_dir;
  TempDir follower_dir;
  DatabaseConfig config;
  config.series_defaults.points_per_chunk = 50;
  config.root_dir = primary_dir.path();
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> primary,
                       Database::Open(config));
  ASSERT_OK(primary->EnablePrimary(0));
  ASSERT_OK(primary->WriteBatch("temp", {{1, 1.0}, {2, 5.0}, {3, 3.0}}));
  config.root_dir = follower_dir.path();
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> follower,
                       Database::Open(config));
  ASSERT_OK(follower->EnableReplica("127.0.0.1", primary->repl_port()));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(15);
  auto caught_up = [&] {
    return follower->replication_status().state == "STREAMING" &&
           follower->replication_status().last_seq ==
               primary->replication_status().last_seq;
  };
  while (!caught_up() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(caught_up());
  ASSERT_OK(follower->FlushAll());

  SqlServer server(follower.get());
  ASSERT_OK(server.Start(0));
  TestClient client(server.port());
  std::string first_body;
  for (int i = 0; i < 3; ++i) {
    client.Send("SELECT M4(v) FROM temp GROUP BY SPANS(2)");
    const std::string reply = client.ReadReply();
    const size_t lag = reply.rfind("\nreplica_lag_ms,");
    ASSERT_NE(lag, std::string::npos) << reply;
    EXPECT_EQ(reply.find('\n', lag + 1), reply.size() - 1) << reply;
    const std::string body = reply.substr(0, lag + 1);
    EXPECT_EQ(body.rfind("span_start,", 0), 0u) << reply;
    if (i == 0) {
      first_body = body;
    } else {
      EXPECT_EQ(body, first_body);
    }
  }
  EXPECT_EQ(follower->result_cache().hits(), 2u);
  server.Stop();
}

TEST(ServerLifecycleTest, StartTwiceRejected) {
  TempDir dir;
  DatabaseConfig config;
  config.root_dir = dir.path();
  auto db = Database::Open(config);
  ASSERT_TRUE(db.ok());
  SqlServer server(db->get());
  ASSERT_OK(server.Start(0));
  EXPECT_EQ(server.Start(0).code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace tsviz
