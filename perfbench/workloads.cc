#include "workloads.h"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <set>
#include <thread>
#include <tuple>

#include "m4/reference.h"
#include "obs/metrics.h"
#include "sql/executor.h"
#include "workload/deletes.h"
#include "workload/generator.h"
#include "workload/ooo.h"

namespace perfbench {

using tsviz::Database;
using tsviz::DatabaseConfig;
using tsviz::Result;
using tsviz::Rng;
using tsviz::Status;

namespace {

constexpr size_t kLoadBatch = 1000;        // = memtable flush threshold
constexpr int64_t kStep = 1000;            // 1 kHz sensors, in microseconds
constexpr Timestamp kStreamBase = 1700000000000000;  // after all setup data
constexpr size_t kDefaultPageCacheBytes = 64u << 20;

uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t h = seed * 0x9e3779b97f4a7c15ull + salt * 0xbf58476d1ce4e5b9ull;
  h ^= h >> 31;
  return h * 0x94d049bb133111ebull + 1;
}

size_t Scaled(const Params& params, size_t n, size_t floor) {
  return std::max(floor, static_cast<size_t>(std::llround(n * params.scale)));
}

// A value as the SQL text carries it, and the double the server parses
// back out of that text.
std::string FormatValue(double v, double* parsed) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4f", v);
  *parsed = std::strtod(buf, nullptr);
  return buf;
}

std::string SelectM4(const std::string& series, Timestamp tqs, Timestamp tqe,
                     int64_t w) {
  return "SELECT M4(v) FROM " + series + " WHERE time >= " +
         std::to_string(tqs) + " AND time < " + std::to_string(tqe) +
         " GROUP BY SPANS(" + std::to_string(w) + ")";
}

Stmt ReadStmt(const std::string& series, Timestamp tqs, Timestamp tqe,
              int64_t w) {
  Stmt s;
  s.kind = Stmt::kRead;
  s.series = series;
  s.tqs = tqs;
  s.tqe = tqe;
  s.w = w;
  s.text = SelectM4(series, tqs, tqe, w);
  return s;
}

// INSERT INTO series VALUES (t, v)[, ...] for the given timestamps, values
// drawn as a bounded random walk.
Stmt InsertStmt(const std::string& series, const std::vector<Timestamp>& ts,
                double* level, Rng* rng) {
  Stmt s;
  s.kind = Stmt::kWrite;
  s.series = series;
  s.text = "INSERT INTO " + series + " VALUES ";
  for (size_t i = 0; i < ts.size(); ++i) {
    *level = std::clamp(*level + rng->Gaussian(0.0, 1.0), -1000.0, 1000.0);
    double parsed = 0;
    const std::string value = FormatValue(*level, &parsed);
    if (i > 0) s.text += ", ";
    s.text += "(" + std::to_string(ts[i]) + ", " + value + ")";
    s.points.push_back(Point{ts[i], parsed});
  }
  return s;
}

// The writer connection of the read workloads: single-row INSERTs into a
// series no SELECT reads, so the read path's caches stay valid.
class HeartbeatGen : public StreamGen {
 public:
  HeartbeatGen(std::string series, uint64_t seed)
      : series_(std::move(series)), rng_(seed) {}
  Stmt Next() override {
    const Timestamp t = next_t_;
    next_t_ += kStep;
    return InsertStmt(series_, {t}, &level_, &rng_);
  }

 private:
  std::string series_;
  Rng rng_;
  Timestamp next_t_ = kStreamBase;
  double level_ = 0.0;
};

// Read workloads: connections 0..C-2 read, the last one writes
// heartbeats, paced in the closed loop to `write_share` of all statements.
class ReadWorkload : public Workload {
 public:
  ReadWorkload(std::string name, double open_loop_rate, double write_share)
      : Workload(std::move(name), open_loop_rate),
        write_share_(write_share) {}

  double RateShare(const Params& params, int conn) const override {
    return conn == PacedConn(params)
               ? write_share_
               : (1.0 - write_share_) / (params.connections - 1);
  }
  int PacedConn(const Params& params) const override {
    return params.connections - 1;
  }
  double PacedShare() const override { return write_share_; }

 protected:
  double write_share_;
};

DatabaseConfig BaseConfig(const std::string& root, size_t page_cache_bytes) {
  DatabaseConfig config;
  config.root_dir = root;
  config.series_defaults.durable_fsync = false;
  config.page_cache_bytes = page_cache_bytes;
  return config;
}

Result<std::unique_ptr<Instance>> NewInstance(const Params& params,
                                              const std::string& name) {
  static std::atomic<int> counter{0};
  auto instance = std::make_unique<Instance>();
  instance->root = params.tmp_dir + "/" + name + "-" +
                   std::to_string(::getpid()) + "-" +
                   std::to_string(counter.fetch_add(1));
  std::error_code ec;
  std::filesystem::remove_all(instance->root, ec);
  std::filesystem::create_directories(instance->root, ec);
  if (ec) return Status::IoError("cannot create " + instance->root);
  return instance;
}

Status StartServers(Instance* instance, const Params& params) {
  if (!params.start_servers) {
    instance->db->StartMaintenance();
    if (instance->follower) instance->follower->StartMaintenance();
    return Status::OK();
  }
  instance->server = std::make_unique<tsviz::SqlServer>(instance->db.get());
  TSVIZ_RETURN_IF_ERROR(instance->server->Start(0));
  if (instance->follower) {
    instance->follower_server =
        std::make_unique<tsviz::SqlServer>(instance->follower.get());
    TSVIZ_RETURN_IF_ERROR(instance->follower_server->Start(0));
  }
  return Status::OK();
}

// Loads `points` (already in arrival order) in memtable-sized batches, so
// every batch becomes one flushed chunk.
Status Load(Instance* instance, const std::string& series,
            const std::vector<Point>& points) {
  for (size_t i = 0; i < points.size(); i += kLoadBatch) {
    const size_t end = std::min(points.size(), i + kLoadBatch);
    std::vector<Point> batch(points.begin() + i, points.begin() + end);
    TSVIZ_RETURN_IF_ERROR(instance->db->WriteBatch(series, batch));
  }
  instance->model.Add(series, points);
  return Status::OK();
}

Status WarmUpQuery(Database* db, const Stmt& stmt) {
  return tsviz::sql::ExecuteQuery(db, stmt.text).status();
}

// --- dashboard_refresh -----------------------------------------------------

// Viewers re-poll a fixed panel set that fits in the result cache; the
// heartbeat connection writes into a status series no panel shows, so the
// panels' cached results stay valid.
class DashboardRefresh : public ReadWorkload {
 public:
  DashboardRefresh() : ReadWorkload("dashboard_refresh", 1000, 0.3) {}

  static constexpr int kSeries = 8;
  static constexpr int kPanels = 32;  // < result_cache_capacity (64)

  Result<std::unique_ptr<Instance>> Setup(const Params& params) override {
    TSVIZ_ASSIGN_OR_RETURN(auto instance, NewInstance(params, name()));
    TSVIZ_ASSIGN_OR_RETURN(
        instance->db,
        Database::Open(BaseConfig(instance->root, kDefaultPageCacheBytes)));
    const size_t n = Scaled(params, 100000, 5000);
    std::vector<std::tuple<std::string, Timestamp, Timestamp>> intervals;
    for (int s = 0; s < kSeries; ++s) {
      tsviz::DatasetSpec spec;
      spec.kind = s % 2 == 0 ? tsviz::DatasetKind::kMf03
                             : tsviz::DatasetKind::kKob;
      spec.num_points = n;
      spec.seed = 100 + s;  // fixed data; the seed varies the panels
      const std::vector<Point> points = tsviz::GenerateDataset(spec);
      const std::string series = "panel_" + std::to_string(s);
      TSVIZ_RETURN_IF_ERROR(Load(instance.get(), series, points));
      intervals.emplace_back(series, points.front().t, points.back().t + 1);
    }
    TSVIZ_RETURN_IF_ERROR(instance->db->FlushAll());
    TSVIZ_RETURN_IF_ERROR(instance->db->CompactAll());

    // The panel set: whole series, a quarter, or a sixteenth of it, at one
    // of two screen widths.
    Rng rng(Mix(params.seed, 3));
    panels_.clear();
    for (int p = 0; p < kPanels; ++p) {
      const auto& [series, start, end] =
          intervals[static_cast<size_t>(rng.Uniform(0, kSeries - 1))];
      const int64_t divisor = int64_t{1} << (2 * rng.Uniform(0, 2));
      const int64_t width = (end - start) / divisor;
      const Timestamp tqs = start + rng.Uniform(0, end - start - width);
      panels_.push_back(
          ReadStmt(series, tqs, tqs + width, rng.Bernoulli(0.5) ? 200 : 400));
    }
    for (const Stmt& panel : panels_) {
      TSVIZ_RETURN_IF_ERROR(WarmUpQuery(instance->db.get(), panel));
    }
    TSVIZ_RETURN_IF_ERROR(StartServers(instance.get(), params));
    return instance;
  }

  // A viewer re-polling random panels.
  class Gen : public StreamGen {
   public:
    Gen(const std::vector<Stmt>* panels, uint64_t seed)
        : panels_(panels), rng_(seed) {}
    Stmt Next() override {
      return (*panels_)[static_cast<size_t>(
          rng_.Uniform(0, static_cast<int64_t>(panels_->size()) - 1))];
    }

   private:
    const std::vector<Stmt>* panels_;
    Rng rng_;
  };

  std::vector<std::unique_ptr<StreamGen>> Streams(const Params& params,
                                                  uint64_t seed) override {
    std::vector<std::unique_ptr<StreamGen>> streams;
    for (int conn = 0; conn < PacedConn(params); ++conn) {
      streams.push_back(std::make_unique<Gen>(&panels_, Mix(seed, conn)));
    }
    streams.push_back(std::make_unique<HeartbeatGen>(
        "status", Mix(seed, PacedConn(params))));
    return streams;
  }

  std::map<std::string, double> Knobs() const override {
    return {{"page_cache_bytes", kDefaultPageCacheBytes},
            {"result_cache_capacity", 64},
            {"panels", kPanels},
            {"panel_series", kSeries},
            {"write_share", write_share_}};
  }

 private:
  std::vector<Stmt> panels_;
};

// --- zoom_explore ----------------------------------------------------------

// Pan/zoom walks over one regular and one time-skewed dataset, loaded in
// out-of-order arrival order (~10% chunk overlap) with deletes on ~10% of
// the chunks, as in the paper's Sections 4.3/4.4. The decoded data is
// several times the shared page-cache budget, and no user repeats a
// (range, w), so the result cache almost never answers (only when two
// users happen to view the same full range).
class ZoomExplore : public ReadWorkload {
 public:
  // Reads are 175/s: enough per window for steady read percentiles, and
  // about a quarter of each reader connection's capacity.
  ZoomExplore() : ReadWorkload("zoom_explore", 350, 0.5) {}

  static constexpr size_t kPagesBudgetBytes = 512u << 10;

  size_t PageCacheBytes(const Params& params) const {
    return Scaled(params, kPagesBudgetBytes, 64u << 10);
  }

  Result<std::unique_ptr<Instance>> Setup(const Params& params) override {
    TSVIZ_ASSIGN_OR_RETURN(auto instance, NewInstance(params, name()));
    DatabaseConfig config =
        BaseConfig(instance->root, PageCacheBytes(params));
    // The paper's evaluation keeps compaction off (Table 4); a compaction
    // here would erase the overlap and the tombstones under study.
    config.maintenance.compaction_files = 0;
    TSVIZ_ASSIGN_OR_RETURN(instance->db, Database::Open(config));

    const size_t n = Scaled(params, 100000, 20000);
    series_.clear();
    const tsviz::DatasetKind kinds[] = {tsviz::DatasetKind::kMf03,
                                        tsviz::DatasetKind::kKob};
    for (int s = 0; s < 2; ++s) {
      tsviz::DatasetSpec spec;
      spec.kind = kinds[s];
      spec.num_points = n;
      // Data, arrival order and deletes are fixed, so the chunk layout (and
      // with it the set-up cost) is the same for every seed; the seed varies
      // the walks.
      spec.seed = 200 + s;
      const std::vector<Point> sorted = tsviz::GenerateDataset(spec);
      Rng order_rng(210 + s);
      const std::vector<Point> arrivals =
          tsviz::MakeOverlappingOrder(sorted, kLoadBatch, 0.1, &order_rng);
      const std::string series = s == 0 ? "zoom_regular" : "zoom_skewed";
      TSVIZ_RETURN_IF_ERROR(Load(instance.get(), series, arrivals));
      TSVIZ_ASSIGN_OR_RETURN(tsviz::TsStore * store,
                             instance->db->GetSeries(series));
      tsviz::DeleteWorkloadSpec deletes;
      deletes.delete_fraction = 0.1;
      deletes.seed = 220 + s;
      for (const tsviz::TimeRange& range :
           tsviz::PlanDeleteRanges(*store, deletes)) {
        TSVIZ_RETURN_IF_ERROR(instance->db->DeleteRange(series, range));
        instance->model.Delete(series, range);
      }
      series_.push_back({series, sorted.front().t, sorted.back().t + 1});
    }
    TSVIZ_RETURN_IF_ERROR(instance->db->FlushAll());

    // A fixed warm-up walk, disjoint from the timed ones, settles the page
    // cache before timing.
    for (int conn = 0; conn < params.connections; ++conn) {
      Gen warm(&series_, Mix(0, 230 + conn));
      for (size_t i = 0; i < Scaled(params, 25, 5); ++i) {
        TSVIZ_RETURN_IF_ERROR(WarmUpQuery(instance->db.get(), warm.Next()));
      }
    }
    TSVIZ_RETURN_IF_ERROR(StartServers(instance.get(), params));
    return instance;
  }

  struct SeriesRange {
    std::string name;
    Timestamp start;
    Timestamp end;
  };

  // One user's pan/zoom walk. The zoom level is a reflected random walk in
  // log width between the full range and 1/1000 of it, so the mix of wide
  // (expensive) and narrow views settles within a few steps; now and then
  // the user switches to the other series.
  class Gen : public StreamGen {
   public:
    // A walk starts at a random zoom level and position, so short walks
    // sample the same mix of views as long ones.
    Gen(const std::vector<SeriesRange>* series, uint64_t seed)
        : series_(series), rng_(seed) {
      current_ = static_cast<size_t>(rng_.Uniform(0, 1));
      const SeriesRange& range = (*series_)[current_];
      center_ = rng_.Uniform(range.start, range.end - 1);
      level_ = rng_.UniformReal(0.0, std::log(1000.0));
    }

    Stmt Next() override {
      Step();
      const SeriesRange& range = (*series_)[current_];
      const int64_t full = range.end - range.start;
      const int64_t width =
          std::max<int64_t>(1000,
                            static_cast<int64_t>(full * std::exp(-level_)));
      static constexpr int64_t kWidths[] = {100, 200, 400};
      const int64_t w = kWidths[rng_.Uniform(0, 2)];
      center_ = std::clamp(center_, range.start + width / 2,
                           range.end - (width + 1) / 2);
      Timestamp tqs = center_ - width / 2;
      // Never repeat a (series, range, w): nudge the window if needed.
      while (!seen_.insert({current_, tqs, w}).second) ++tqs;
      return ReadStmt(range.name, tqs, tqs + width, w);
    }

   private:
    void Step() {
      static const double kMaxLevel = std::log(1000.0);
      const double action = rng_.UniformReal(0.0, 1.0);
      if (action < 0.1) {
        current_ = 1 - current_;
        const SeriesRange& range = (*series_)[current_];
        center_ = rng_.Uniform(range.start, range.end - 1);
      } else if (action < 0.7) {
        level_ += (rng_.Bernoulli(0.5) ? 1 : -1) *
                  rng_.UniformReal(std::log(2.0), std::log(8.0));
        if (level_ < 0) level_ = -level_;
        if (level_ > kMaxLevel) level_ = 2 * kMaxLevel - level_;
        level_ = std::clamp(level_, 0.0, kMaxLevel);
      } else {
        const SeriesRange& range = (*series_)[current_];
        const double width = (range.end - range.start) * std::exp(-level_);
        center_ += static_cast<int64_t>(width * rng_.UniformReal(-1, 1));
      }
    }

    const std::vector<SeriesRange>* series_;
    Rng rng_;
    size_t current_ = 0;
    double level_ = 0.0;  // ln(full / width)
    Timestamp center_ = 0;
    std::set<std::tuple<size_t, Timestamp, int64_t>> seen_;
  };

  // One connection carries several users' walks, round-robin, so a run of
  // wide views from one user does not stall the connection for long.
  class Interleave : public StreamGen {
   public:
    // Many short walks: a run then samples hundreds of positions and zoom
    // levels, so its latency mix does not hinge on where a few users went.
    static constexpr int kUsers = 256;
    Interleave(const std::vector<SeriesRange>* series, uint64_t seed) {
      for (int u = 0; u < kUsers; ++u) {
        users_.push_back(std::make_unique<Gen>(series, Mix(seed, 50 + u)));
      }
    }
    Stmt Next() override { return users_[next_++ % users_.size()]->Next(); }

   private:
    std::vector<std::unique_ptr<Gen>> users_;
    size_t next_ = 0;
  };

  std::vector<std::unique_ptr<StreamGen>> Streams(const Params& params,
                                                  uint64_t seed) override {
    std::vector<std::unique_ptr<StreamGen>> streams;
    for (int conn = 0; conn < PacedConn(params); ++conn) {
      streams.push_back(
          std::make_unique<Interleave>(&series_, Mix(seed, conn)));
    }
    streams.push_back(
        std::make_unique<HeartbeatGen>("live", Mix(seed, PacedConn(params))));
    return streams;
  }

  std::map<std::string, double> Knobs() const override {
    return {{"page_cache_bytes", kPagesBudgetBytes},
            {"compaction_files", 0},
            {"ooo_overlap", 0.1},
            {"delete_fraction", 0.1},
            {"write_share", write_share_}};
  }

 private:
  std::vector<SeriesRange> series_;
};

// --- sensor_ingest / replicated_ingest -------------------------------------

// A fleet of 1 kHz sensors: pipelined single-row INSERTs, 100-row batch
// INSERTs, a few late (out-of-order) points, and ~10% M4 SELECTs over the
// recent window of a random series. Background maintenance runs with its
// defaults, so auto-flush and compaction happen during timing.
class Ingest : public Workload {
 public:
  explicit Ingest(bool replicated)
      // The replicated write path costs more, so its rate leaves more
      // headroom: a slow spell of the host must not turn into queueing.
      : Workload(replicated ? "replicated_ingest" : "sensor_ingest",
                 replicated ? 800 : 1500),
        replicated_(replicated) {}

  static constexpr int kSeries = 16;
  static constexpr double kReadShare = 0.1;
  static constexpr double kBatchShare = 0.3;  // of writes
  static constexpr int kBatchPoints = 100;
  static constexpr double kLateShare = 0.05;  // of single-row writes
  static constexpr int64_t kReadWindowPoints = 20000;
  static constexpr int64_t kMaxStalenessMs = 10000;

  static std::string SeriesName(int s) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "sensor_%02d", s);
    return buf;
  }

  // Connections 0..writers-1 each own the series s with s % writers ==
  // conn; replicated_ingest's last connection talks to the follower.
  int Writers(const Params& params) const {
    return replicated_ ? params.connections - 1 : params.connections;
  }

  Result<std::unique_ptr<Instance>> Setup(const Params& params) override {
    TSVIZ_ASSIGN_OR_RETURN(auto instance, NewInstance(params, name()));
    TSVIZ_ASSIGN_OR_RETURN(
        instance->db,
        Database::Open(BaseConfig(instance->root + "/primary",
                                  kDefaultPageCacheBytes)));
    if (replicated_) {
      TSVIZ_RETURN_IF_ERROR(instance->db->EnablePrimary(0));
      TSVIZ_ASSIGN_OR_RETURN(
          instance->follower,
          Database::Open(BaseConfig(instance->root + "/follower",
                                    kDefaultPageCacheBytes)));
      TSVIZ_RETURN_IF_ERROR(instance->follower->ApplySetting(
          "max_staleness_ms", static_cast<double>(kMaxStalenessMs)));
      TSVIZ_RETURN_IF_ERROR(instance->follower->EnableReplica(
          "127.0.0.1", instance->db->repl_port()));
    }
    TSVIZ_RETURN_IF_ERROR(StartServers(instance.get(), params));

    // Warm-up: ingest round-robin until the first background compaction
    // has completed.
    static tsviz::obs::Counter& compactions =
        tsviz::obs::GetCounter("storage_compactions_total");
    const uint64_t before = compactions.value();
    Rng rng(Mix(params.seed, 300));
    std::vector<double> level(kSeries, 0.0);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    for (int64_t round = 0; compactions.value() == before; ++round) {
      if (std::chrono::steady_clock::now() > deadline) {
        return Status::Internal("warm-up saw no compaction within 60 s");
      }
      if (round >= 12) {
        // Enough files for the policy; wait for its next tick.
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        continue;
      }
      for (int s = 0; s < kSeries; ++s) {
        std::vector<Timestamp> ts;
        for (size_t i = 0; i < kLoadBatch; ++i) {
          ts.push_back(kStreamBase - 1000000000000 +
                       (round * static_cast<int64_t>(kLoadBatch) +
                        static_cast<int64_t>(i)) *
                           kStep);
        }
        const Stmt stmt = InsertStmt(SeriesName(s), ts, &level[s], &rng);
        TSVIZ_RETURN_IF_ERROR(instance->db->WriteBatch(stmt.series,
                                                       stmt.points));
        instance->model.Add(stmt.series, stmt.points);
      }
    }
    if (replicated_) TSVIZ_RETURN_IF_ERROR(instance->WaitForFollower(60));
    return instance;
  }

  // Per-series timestamp frontier the writer streams publish; the
  // follower's reader windows end there.
  using Frontier = std::array<std::atomic<Timestamp>, kSeries>;

  class Gen : public StreamGen {
   public:
    Gen(std::vector<int> owned, uint64_t seed, double read_share,
        std::shared_ptr<Frontier> frontier)
        : owned_(std::move(owned)),
          rng_(seed),
          read_share_(read_share),
          frontier_(std::move(frontier)),
          next_t_(owned_.size(), kStreamBase),
          late_(owned_.size()),
          level_(owned_.size(), 0.0) {}

    Stmt Next() override {
      const size_t k = static_cast<size_t>(
          rng_.Uniform(0, static_cast<int64_t>(owned_.size()) - 1));
      const std::string series = SeriesName(owned_[k]);
      if (rng_.Bernoulli(read_share_)) {
        const Timestamp end = next_t_[k];
        return ReadStmt(series, end - kReadWindowPoints * kStep, end, 100);
      }
      std::vector<Timestamp> ts;
      if (rng_.Bernoulli(kBatchShare)) {
        for (int i = 0; i < kBatchPoints; ++i) ts.push_back(Advance(k));
      } else if (!late_[k].empty() && rng_.Bernoulli(kLateShare)) {
        ts.push_back(late_[k].front());  // an older, skipped timestamp
        late_[k].erase(late_[k].begin());
      } else {
        ts.push_back(Advance(k));
      }
      (*frontier_)[owned_[k]].store(next_t_[k]);
      return InsertStmt(series, ts, &level_[k], &rng_);
    }

   private:
    // The next in-order timestamp of owned series k; now and then one is
    // skipped and kept back to arrive late.
    Timestamp Advance(size_t k) {
      if (rng_.Bernoulli(0.01) && late_[k].size() < 64) {
        late_[k].push_back(next_t_[k]);
        next_t_[k] += kStep;
      }
      const Timestamp t = next_t_[k];
      next_t_[k] += kStep;
      return t;
    }

    std::vector<int> owned_;
    Rng rng_;
    double read_share_;
    std::shared_ptr<Frontier> frontier_;
    std::vector<Timestamp> next_t_;
    std::vector<std::vector<Timestamp>> late_;
    std::vector<double> level_;
  };

  // replicated_ingest's read-only stream: recent windows of any series,
  // ending at the frontier the writer streams have reached.
  class ReaderGen : public StreamGen {
   public:
    ReaderGen(uint64_t seed, std::shared_ptr<Frontier> frontier)
        : rng_(seed), frontier_(std::move(frontier)) {}
    Stmt Next() override {
      const int s = static_cast<int>(rng_.Uniform(0, kSeries - 1));
      const Timestamp end = (*frontier_)[s].load();
      return ReadStmt(SeriesName(s), end - kReadWindowPoints * kStep, end,
                      100);
    }

   private:
    Rng rng_;
    std::shared_ptr<Frontier> frontier_;
  };

  std::vector<std::unique_ptr<StreamGen>> Streams(const Params& params,
                                                  uint64_t seed) override {
    auto frontier = std::make_shared<Frontier>();
    for (auto& t : *frontier) t.store(kStreamBase);
    const int writers = Writers(params);
    std::vector<std::unique_ptr<StreamGen>> streams;
    for (int conn = 0; conn < writers; ++conn) {
      std::vector<int> owned;
      for (int s = conn; s < kSeries; s += writers) owned.push_back(s);
      streams.push_back(std::make_unique<Gen>(
          std::move(owned), Mix(seed, conn), replicated_ ? 0.0 : kReadShare,
          frontier));
    }
    for (int conn = writers; conn < params.connections; ++conn) {
      streams.push_back(std::make_unique<ReaderGen>(Mix(seed, conn), frontier));
    }
    return streams;
  }

  double RateShare(const Params& params, int conn) const override {
    if (!replicated_) return 1.0 / params.connections;
    if (conn >= Writers(params)) return kReadShare;
    return (1.0 - kReadShare) / Writers(params);
  }

  int PacedConn(const Params& params) const override {
    return replicated_ ? Writers(params) : -1;
  }
  bool ToFollower(int conn, const Params& params) const override {
    return conn == PacedConn(params);
  }
  double PacedShare() const override { return kReadShare; }

  std::map<std::string, double> Knobs() const override {
    std::map<std::string, double> knobs = {
        {"page_cache_bytes", kDefaultPageCacheBytes},
        {"series", kSeries},
        {"read_share", kReadShare},
        {"batch_share_of_writes", kBatchShare},
        {"batch_points", kBatchPoints},
        {"late_share_of_single_writes", kLateShare}};
    if (replicated_) knobs["max_staleness_ms"] = kMaxStalenessMs;
    return knobs;
  }

 private:
  bool replicated_;
};

}  // namespace

// --- Model / Instance ------------------------------------------------------

void Model::Add(const std::string& series, const std::vector<Point>& points) {
  Series& s = series_[series];
  s.written.insert(s.written.end(), points.begin(), points.end());
  s.dirty = true;
}

void Model::Delete(const std::string& series, const tsviz::TimeRange& range) {
  Series& s = series_[series];
  s.deletes.push_back(range);
  s.dirty = true;
}

const std::vector<Point>& Model::Merged(const std::string& series) {
  Series& s = series_[series];
  if (s.dirty) {
    std::vector<std::pair<tsviz::Version, std::vector<Point>>> chunks;
    chunks.emplace_back(1, s.written);
    std::vector<std::pair<tsviz::Version, tsviz::TimeRange>> deletes;
    for (const tsviz::TimeRange& range : s.deletes) {
      deletes.emplace_back(2, range);
    }
    s.merged = tsviz::ReferenceMerge(chunks, deletes);
    s.dirty = false;
  }
  return s.merged;
}

uint64_t Model::PointsHeld() {
  uint64_t n = 0;
  for (auto& [name, s] : series_) n += Merged(name).size();
  return n;
}

Status Instance::WaitForFollower(double timeout_s) {
  if (!follower) return Status::OK();
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  while (std::chrono::steady_clock::now() < deadline) {
    const tsviz::ReplicationStatus fs = follower->replication_status();
    if (fs.state == "STREAMING" &&
        fs.last_seq == db->replication_status().last_seq) {
      return Status::OK();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return Status::Internal("follower did not catch up");
}

void Instance::Close() {
  if (follower_server) follower_server->Stop();
  if (server) server->Stop();
  follower_server.reset();
  server.reset();
  if (follower) {
    follower->StopMaintenance();
    (void)follower->DisableReplica();
  }
  if (db) db->StopMaintenance();
  follower.reset();
  db.reset();
  if (!root.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(root, ec);
    root.clear();
  }
}

// --- registry --------------------------------------------------------------

std::unique_ptr<Workload> Workload::Create(const std::string& name) {
  if (name == "dashboard_refresh") return std::make_unique<DashboardRefresh>();
  if (name == "zoom_explore") return std::make_unique<ZoomExplore>();
  if (name == "sensor_ingest") return std::make_unique<Ingest>(false);
  if (name == "replicated_ingest") return std::make_unique<Ingest>(true);
  return nullptr;
}

double RoundAsReply(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return std::strtod(buf, nullptr);
}

}  // namespace perfbench
