#ifndef TSVIZ_PERFBENCH_WORKLOADS_H_
#define TSVIZ_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "common/time_range.h"
#include "common/types.h"
#include "db/database.h"
#include "server/server.h"

namespace perfbench {

using tsviz::Point;
using tsviz::Timestamp;

// One generated SQL statement plus what the benchmark needs to check its
// reply: the query geometry for a SELECT, the points for an INSERT.
struct Stmt {
  enum Kind { kRead, kWrite };
  Kind kind = kRead;
  std::string text;
  std::string series;
  Timestamp tqs = 0;
  Timestamp tqe = 0;
  int64_t w = 0;
  std::vector<Point> points;
};

// A deterministic per-connection statement stream. Each TCP connection
// owns one, so the closed-loop phase can generate on the fly without
// sharing state between connection threads; the open-loop phase and the
// in-process replay draw the same statements from a fresh stream with the
// same seed.
class StreamGen {
 public:
  virtual ~StreamGen() = default;
  virtual Stmt Next() = 0;
};

// What every acknowledged write and every setup load put into the
// database, kept by the benchmark as its own model of the data. Timestamps
// are never rewritten, so the merged view is the written points minus the
// deleted ranges (ReferenceMerge with one version for the data and a later
// one for the deletes).
class Model {
 public:
  void Add(const std::string& series, const std::vector<Point>& points);
  void Delete(const std::string& series, const tsviz::TimeRange& range);
  // The merged, time-ordered series (memoised until the next change).
  const std::vector<Point>& Merged(const std::string& series);
  uint64_t PointsHeld();

 private:
  struct Series {
    std::vector<Point> written;
    std::vector<tsviz::TimeRange> deletes;
    std::vector<Point> merged;
    bool dirty = true;
  };
  std::map<std::string, Series> series_;
};

// A database (plus, for replicated_ingest, its follower) and the SQL
// servers in front of them, living under one fresh temp root.
struct Instance {
  std::string root;
  std::unique_ptr<tsviz::Database> db;
  std::unique_ptr<tsviz::Database> follower;
  std::unique_ptr<tsviz::SqlServer> server;
  std::unique_ptr<tsviz::SqlServer> follower_server;
  Model model;

  // The database reads are sent to.
  tsviz::Database* read_db() { return follower ? follower.get() : db.get(); }
  // Blocks until the follower has applied everything the primary logged.
  tsviz::Status WaitForFollower(double timeout_s);
  // Stops servers and background work, closes the databases and removes
  // the temp root.
  void Close();
  ~Instance() { Close(); }
};

struct Params {
  uint64_t seed = 1;
  double scale = 1.0;      // multiplies data sizes (self-test runs tiny)
  int connections = 4;
  std::string tmp_dir;     // parent of every instance root
  bool start_servers = true;
};

// One benchmark workload: how to build its database and which statements
// each connection sends.
class Workload {
 public:
  virtual ~Workload() = default;

  static std::unique_ptr<Workload> Create(const std::string& name);

  const std::string& name() const { return name_; }
  // Statements per second the open-loop phase offers, over all connections.
  double open_loop_rate() const { return open_loop_rate_; }

  // Builds a fresh database under params.tmp_dir, loads its data, warms it
  // up, and (unless params.start_servers is false) starts its SQL servers.
  virtual tsviz::Result<std::unique_ptr<Instance>> Setup(
      const Params& params) = 0;

  // One statement stream per connection for stream seed `seed`. The
  // streams of one call may share state (replicated_ingest's reader follows
  // the writers' frontier), so a phase draws them in schedule order. Every
  // series is written by one connection only.
  virtual std::vector<std::unique_ptr<StreamGen>> Streams(
      const Params& params, uint64_t seed) = 0;

  // Share of the offered rate that connection `conn` carries.
  virtual double RateShare(const Params& params, int conn) const {
    return 1.0 / params.connections;
  }

  // Whether connection `conn` talks to the follower's server, whose replies
  // may lag the primary by design.
  virtual bool ToFollower(int conn, const Params& params) const {
    return false;
  }

  // The connection that carries the workload's minor statement class
  // (-1: none). In the closed loop it is paced to PacedShare() of all
  // statements, so the mix matches the open loop.
  virtual int PacedConn(const Params& params) const { return -1; }
  virtual double PacedShare() const { return 0.0; }

  // Knob values recorded in every report.
  virtual std::map<std::string, double> Knobs() const = 0;

 protected:
  Workload(std::string name, double open_loop_rate)
      : name_(std::move(name)), open_loop_rate_(open_loop_rate) {}

 private:
  std::string name_;
  double open_loop_rate_;
};

// The stored point a reply value is compared with: reply values are
// printed with %.10g, so the reference goes through the same rounding.
double RoundAsReply(double v);

}  // namespace perfbench

#endif  // TSVIZ_PERFBENCH_WORKLOADS_H_
