// The repository benchmark: one workload per process against an in-process
// SqlServer over loopback TCP. See perfbench/README.md for the workloads,
// the metrics and how to run it (normally through perfbench/run.py).

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "client.h"
#include "m4/m4_types.h"
#include "m4/reference.h"
#include "m4/span.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "replay.h"
#include "report.h"
#include "sql/executor.h"
#include "storage/options.h"
#include "storage/page_cache.h"
#include "workloads.h"

#ifndef TSVIZ_PERFBENCH_BUILD_TYPE
#define TSVIZ_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

// A run whose generator fell this far behind its schedule, or left this
// much unanswered at the end of the open-loop phase, measured the
// generator rather than the system and is reported invalid.
constexpr double kMaxGenLateMs = 25.0;
constexpr double kMaxBacklogSeconds = 0.25;
// The in-process replay covers at most this many statements.
constexpr size_t kMaxReplayStmts = 5000;
constexpr size_t kMaxDumpedStmts = 2000;
constexpr size_t kPagePoints = 200;  // ChunkEncodingOptions default
// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  double scale = 1.0;
  std::string out_dir = ".bench_build/results";
  std::string tmp_dir = ".bench_build/tmp";
  std::string describe = "unknown";
  bool corrupt_sample = false;  // self-test: damage one sampled reply
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-sample") {
      args->corrupt_sample = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--scale") {
      args->scale = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--out") {
      args->out_dir = value;
    } else if (flag == "--tmp") {
      args->tmp_dir = value;
    } else if (flag == "--describe") {
      args->describe = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0 && args->scale > 0;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Latency and throughput are reported as the median over kWindows equal
// windows of their phase (by scheduled send time, or completion time in
// the closed loop), so a transient stall of the host moves one window and
// not the result.
constexpr int kWindows = 4;

int WindowOf(double at, double phase_s) {
  return std::clamp(static_cast<int>(at / phase_s * kWindows), 0,
                    kWindows - 1);
}

double WindowedQuantile(const std::vector<std::pair<double, double>>& lat,
                        double phase_s, double q) {
  std::vector<std::vector<double>> windows(kWindows);
  for (const auto& [at, ms] : lat) windows[WindowOf(at, phase_s)].push_back(ms);
  std::vector<double> per_window;
  for (std::vector<double>& w : windows) {
    if (!w.empty()) per_window.push_back(Quantile(std::move(w), q));
  }
  return Median(per_window);
}

// Completed SELECTs (points = false) or acknowledged points per second.
double WindowedRate(const std::vector<std::pair<double, uint64_t>>& done,
                    double phase_s, bool points) {
  std::vector<double> per_window(kWindows, 0.0);
  for (const auto& [at, n] : done) {
    if (points ? n > 0 : n == 0) {
      per_window[WindowOf(at, phase_s)] += points ? n : 1;
    }
  }
  for (double& w : per_window) w /= phase_s / kWindows;
  return Median(per_window);
}

std::vector<double> Latencies(
    const std::vector<std::pair<double, double>>& lat) {
  std::vector<double> ms;
  for (const auto& sample : lat) ms.push_back(sample.second);
  return ms;
}

template <typename T>
void Append(std::vector<T>* dst, const std::vector<T>& src) {
  dst->insert(dst->end(), src.begin(), src.end());
}

// Parses an M4 CSV reply into its span starts and rows; false when it is
// not w well-formed rows.
bool ParseM4Reply(const std::string& reply, int64_t w,
                  std::vector<Timestamp>* starts, tsviz::M4Result* out) {
  size_t pos = reply.find('\n');
  if (pos == std::string::npos || reply.compare(0, 11, "span_start,") != 0) {
    return false;
  }
  ++pos;
  while (pos < reply.size()) {
    const size_t end = reply.find('\n', pos);
    if (end == std::string::npos) return false;
    std::vector<std::string> cells;
    size_t start = pos;
    while (true) {
      const size_t comma = reply.find(',', start);
      if (comma == std::string::npos || comma > end) {
        cells.push_back(reply.substr(start, end - start));
        break;
      }
      cells.push_back(reply.substr(start, comma - start));
      start = comma + 1;
    }
    pos = end + 1;
    if (cells.size() != 9) return false;
    char* endp = nullptr;
    starts->push_back(std::strtoll(cells[0].c_str(), &endp, 10));
    if (*endp != '\0') return false;
    tsviz::M4Row row;
    if (cells[1] != "null") {
      row.has_data = true;
      tsviz::Point* points[] = {&row.first, &row.last, &row.bottom, &row.top};
      for (int k = 0; k < 4; ++k) {
        points[k]->t = std::strtoll(cells[1 + 2 * k].c_str(), &endp, 10);
        if (*endp != '\0') return false;
        points[k]->v = std::strtod(cells[2 + 2 * k].c_str(), &endp);
        if (*endp != '\0') return false;
      }
    }
    out->push_back(row);
  }
  return static_cast<int64_t>(out->size()) == w;
}

// The acknowledged writes a sampled SELECT may see, in the order the
// server applied them, and how many of them it must see at least.
struct Visible {
  std::vector<const Stmt*> writes;
  size_t at_least = 0;
};

// Checks one sampled SELECT reply. A SELECT reads published (flushed) data
// only, so it sees the set-up data plus a prefix of its series'
// acknowledged writes, cut at a statement boundary. The reply must equal,
// under RowsEquivalent, ReferenceM4 over ReferenceMerge of `setup` (the
// series' merged set-up data) and one such prefix of `visible.writes` at
// least `visible.at_least` writes long.
std::string CheckSample(const Sample& sample, const std::vector<Point>& setup,
                        const Visible& visible) {
  const Stmt& stmt = sample.stmt;
  std::vector<Timestamp> starts;
  tsviz::M4Result got;
  if (!ParseM4Reply(sample.reply, stmt.w, &starts, &got)) {
    return "unparseable reply to " + stmt.text;
  }
  const tsviz::M4Query query{stmt.tqs, stmt.tqe, stmt.w};
  const tsviz::SpanSet spans(query);
  for (int64_t i = 0; i < spans.num_spans(); ++i) {
    if (starts[static_cast<size_t>(i)] != spans.SpanStart(i)) {
      return "wrong span_start in row " + std::to_string(i) + " of " +
             stmt.text;
    }
  }
  auto by_time = [](const Point& p, Timestamp t) { return p.t < t; };
  const auto lo =
      std::lower_bound(setup.begin(), setup.end(), stmt.tqs, by_time);
  const auto hi = std::lower_bound(lo, setup.end(), stmt.tqe, by_time);
  const std::vector<Point> base(lo, hi);

  // A longer prefix only adds points, so the newest timestamp in range
  // only grows with it: the prefixes worth comparing are those whose
  // newest point is the reply's newest.
  constexpr Timestamp kNone = std::numeric_limits<Timestamp>::min();
  Timestamp reply_newest = kNone;
  for (const tsviz::M4Row& row : got) {
    if (row.has_data) reply_newest = std::max(reply_newest, row.last.t);
  }
  Timestamp newest = base.empty() ? kNone : base.back().t;
  std::vector<Point> added;  // the in-range points of writes [0, k)
  size_t compared = std::numeric_limits<size_t>::max();
  std::string mismatch =
      "no allowed prefix of the acknowledged writes ends at the reply's "
      "newest point";
  for (size_t k = 0; k <= visible.writes.size(); ++k) {
    if (k > 0) {
      for (const Point& p : visible.writes[k - 1]->points) {
        if (p.t >= stmt.tqs && p.t < stmt.tqe) {
          added.push_back(p);
          newest = std::max(newest, p.t);
        }
      }
    }
    if (newest > reply_newest) break;
    if (k < visible.at_least || newest != reply_newest ||
        added.size() == compared) {
      continue;
    }
    compared = added.size();
    tsviz::M4Result want = tsviz::ReferenceM4(
        added.empty() ? base
                      : tsviz::ReferenceMerge({{1, base}, {2, added}}, {}),
        query);
    // Rounding is monotone, so rounding the reference's picks equals
    // picking over rounded values.
    for (tsviz::M4Row& row : want) {
      for (Point* p : {&row.first, &row.last, &row.bottom, &row.top}) {
        p->v = RoundAsReply(p->v);
      }
    }
    if (tsviz::ResultsEquivalent(got, want)) return "";
    mismatch = tsviz::FirstMismatch(got, want);
  }
  return "wrong M4 for " + stmt.text + ": " + mismatch;
}

// After FlushAll, every acknowledged point of `series` must be visible.
std::string ReadBack(tsviz::Database* db, const std::string& series,
                     Model* model, const char* role) {
  auto rows = tsviz::sql::ExecuteQuery(db, "SELECT v FROM " + series);
  if (!rows.ok()) return std::string(role) + " " + series + ": " +
                         rows.status().ToString();
  const std::vector<Point>& want = model->Merged(series);
  if (rows->num_rows() != want.size()) {
    return std::string(role) + " " + series + " holds " +
           std::to_string(rows->num_rows()) + " points, model " +
           std::to_string(want.size());
  }
  for (size_t i = 0; i < want.size(); ++i) {
    const auto& row = rows->rows()[i];
    const int64_t* t = std::get_if<int64_t>(&row[0]);
    const double* v = std::get_if<double>(&row[1]);
    if (t == nullptr || v == nullptr || *t != want[i].t || *v != want[i].v) {
      return std::string(role) + " " + series + " differs at point " +
             std::to_string(i);
    }
  }
  return "";
}

// Runs `fn(conn)` on one thread per connection while the calling thread
// samples the background queue depth.
template <typename Fn>
void RunConnections(int connections, Fn fn, double* queue_depth_max) {
  static tsviz::obs::Gauge& depth = tsviz::obs::GetGauge("bg_queue_depth");
  std::atomic<int> running{connections};
  std::vector<std::thread> threads;
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      fn(c);
      running.fetch_sub(1);
    });
  }
  while (running.load() > 0) {
    *queue_depth_max = std::max(*queue_depth_max, depth.value());
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  for (std::thread& t : threads) t.join();
}

int Run(const Args& args, double process_start) {
  std::unique_ptr<Workload> workload = Workload::Create(args.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  std::filesystem::create_directories(args.tmp_dir, ec);
  Params params;
  params.seed = args.seed;
  params.scale = args.scale;
  params.tmp_dir = args.tmp_dir;
  const int C = params.connections;

  // --- set-up, several times; the last instance is measured -------------
  std::vector<double> setup_s;
  std::unique_ptr<Instance> inst;
  for (int r = 0; r < kSetups; ++r) {
    if (inst) {
      inst.reset();
      // Nothing process-wide may carry over into the next set-up.
      tsviz::SharedPageCache::Instance().Clear();
      tsviz::obs::FlightRecorder::Instance().Clear();
    }
    const double start = r == 0 ? process_start : NowSeconds();
    auto made = workload->Setup(params);
    if (!made.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   made.status().ToString().c_str());
      return 1;
    }
    inst = std::move(*made);
    setup_s.push_back(NowSeconds() - start);
  }

  std::fprintf(stderr, "[perfbench] set-up done at %.2f s\n",
               NowSeconds() - process_start);
  // --- the open-loop schedule: Poisson arrivals per connection, drawn in
  // global time order so streams that share state stay causal ------------
  const double open_s = args.seconds / 2;
  const double closed_s = args.seconds / 2;
  auto streams = workload->Streams(params, args.seed * 1000003 + 11);
  std::vector<std::pair<double, int>> arrivals;
  for (int c = 0; c < C; ++c) {
    const double rate =
        workload->open_loop_rate() * workload->RateShare(params, c);
    tsviz::Rng rng(args.seed * 7919 + 101 + c);
    for (double t = rng.Exponential(1.0 / rate); t < open_s;
         t += rng.Exponential(1.0 / rate)) {
      arrivals.emplace_back(t, c);
    }
  }
  std::sort(arrivals.begin(), arrivals.end());
  std::vector<std::vector<Scheduled>> schedule(C);
  std::vector<Stmt> replay_stmts;
  for (const auto& [at, c] : arrivals) {
    schedule[c].push_back(Scheduled{at, streams[c]->Next()});
    if (replay_stmts.size() < kMaxReplayStmts) {
      replay_stmts.push_back(schedule[c].back().stmt);
    }
  }

  auto port_of = [&](int c) {
    return workload->ToFollower(c, params) ? inst->follower_server->port()
                                           : inst->server->port();
  };

  // --- timed phases -------------------------------------------------------
  ResetPeakRss();
  const RegistrySnapshot before = RegistrySnapshot::Take();
  double queue_depth_max = 0;
  std::vector<ConnResult> open(C), closed(C);
  {
    const double start = NowSeconds() + 0.05;
    RunConnections(
        C,
        [&](int c) {
          PhaseOptions options;
          options.port = port_of(c);
          options.seconds = open_s;
          open[c] = RunOpenLoop(options, schedule[c], start);
        },
        &queue_depth_max);
  }
  // The closed loop's bookkeeping grows with its throughput, so the peak
  // covers the open-loop phase, whose schedule fixes it.
  const double peak_rss_mb = PeakRssMb();
  Pacing pacing;
  pacing.share = workload->PacedShare();
  {
    const double start = NowSeconds() + 0.05;
    RunConnections(
        C,
        [&](int c) {
          PhaseOptions options;
          options.port = port_of(c);
          options.seconds = closed_s;
          closed[c] = RunClosedLoop(options, streams[c].get(), &pacing,
                                    c == workload->PacedConn(params), start);
        },
        &queue_depth_max);
  }
  const RegistrySnapshot after = RegistrySnapshot::Take();
  std::fprintf(stderr, "[perfbench] timed phases done at %.2f s\n",
               NowSeconds() - process_start);
  const uint64_t disk_bytes =
      DirBytes(inst->follower ? inst->root + "/primary" : inst->root);
  double files = 0;
  const std::vector<std::string> series_names = inst->db->ListSeries();
  for (const std::string& name : series_names) {
    auto store = inst->db->GetSeries(name);
    if (store.ok()) files += static_cast<double>((*store)->NumFiles());
  }
  const double files_per_series =
      Ratio(files, static_cast<double>(series_names.size()));
  const bool has_follower = inst->follower != nullptr;

  // --- aggregate ----------------------------------------------------------
  std::vector<std::pair<double, double>> read_lat, write_lat;
  std::vector<double> late_ms, lag_ms;
  uint64_t attempted = 0, failed = 0, backlog = 0, inserts = 0;
  std::vector<std::pair<double, uint64_t>> completions;
  std::vector<std::string> errors;
  for (int phase = 0; phase < 2; ++phase) {
    for (ConnResult& r : phase == 0 ? open : closed) {
      if (phase == 0) {
        Append(&read_lat, r.read_ms);
        Append(&write_lat, r.write_ms);
        Append(&late_ms, r.late_ms);
        backlog += r.backlog;
      }
      Append(&lag_ms, r.lag_ms);
      attempted += r.attempted;
      failed += r.failed;
      inserts += r.inserts;
      Append(&completions, r.completions);
      Append(&errors, r.errors);
    }
  }
  // Every acknowledged write per series, in the order the server applied
  // it, with its position among its connection's acknowledged writes; and
  // every sampled reply with the writes its connection acknowledged before
  // it.
  struct Ack {
    int conn;
    size_t pos;
    const Stmt* stmt;
  };
  struct Checked {
    Sample sample;
    int conn;
    size_t acked_before;
  };
  std::map<std::string, std::vector<Ack>> acks;
  std::vector<Checked> checked;
  uint64_t points_acked = 0;
  for (int c = 0; c < C; ++c) {
    size_t pos = 0;
    for (const ConnResult* r : {&open[c], &closed[c]}) {
      for (const Sample& s : r->samples) {
        checked.push_back(Checked{s, c, pos + s.acked_before});
      }
      for (const Stmt& w : r->acked) {
        acks[w.series].push_back(Ack{c, pos++, &w});
        points_acked += w.points.size();
      }
    }
  }
  const std::vector<double> read_ms = Latencies(read_lat);
  const std::vector<double> write_ms = Latencies(write_lat);
  std::vector<double> all_ms = read_ms;
  Append(&all_ms, write_ms);

  // --- correctness --------------------------------------------------------
  if (args.corrupt_sample && !checked.empty()) {
    std::string& reply = checked.front().sample.reply;
    const size_t digit = reply.find_first_of("123456789", reply.find('\n'));
    if (digit != std::string::npos) {
      reply[digit] = reply[digit] == '9' ? '1' : reply[digit] + 1;
    }
  }
  // Unpublished writes sit in the memtable (under the flush threshold after
  // every acknowledgement) or in the one flush in flight (likewise), so a
  // SELECT on the writing connection sees every earlier write but the
  // newest fewer-than-this many points. A follower may show any prefix.
  const size_t max_unpublished =
      2 * tsviz::StoreConfig().memtable_flush_threshold;
  uint64_t wrong = 0;
  for (const Checked& c : checked) {
    const std::string& series = c.sample.stmt.series;
    const bool stale = workload->ToFollower(c.conn, params);
    Visible visible;
    if (const auto found = acks.find(series); found != acks.end()) {
      for (const Ack& a : found->second) {
        if (stale || (a.conn == c.conn && a.pos < c.acked_before)) {
          visible.writes.push_back(a.stmt);
        }
      }
    }
    if (!stale) {
      size_t k = visible.writes.size();
      size_t unpublished = 0;
      while (k > 0 && unpublished + visible.writes[k - 1]->points.size() <
                          max_unpublished) {
        unpublished += visible.writes[--k]->points.size();
      }
      visible.at_least = k;
    }
    const std::string problem =
        CheckSample(c.sample, inst->model.Merged(series), visible);
    if (!problem.empty()) {
      ++wrong;
      if (errors.size() < 10) errors.push_back(problem);
    }
  }
  for (const auto& [series, series_acks] : acks) {
    for (const Ack& a : series_acks) inst->model.Add(series, a.stmt->points);
  }
  tsviz::Status flushed = inst->db->FlushAll();
  if (flushed.ok()) flushed = inst->WaitForFollower(60);
  if (flushed.ok() && inst->follower) flushed = inst->follower->FlushAll();
  if (!flushed.ok()) {
    ++wrong;
    errors.push_back("final flush: " + flushed.ToString());
  }
  for (const auto& [series, series_acks] : acks) {
    for (tsviz::Database* db : {inst->db.get(), inst->follower.get()}) {
      if (db == nullptr || !flushed.ok()) continue;
      const std::string problem = ReadBack(
          db, series, &inst->model,
          db == inst->db.get() ? "primary" : "follower");
      if (!problem.empty()) {
        ++wrong;
        if (errors.size() < 10) errors.push_back(problem);
      }
    }
  }
  failed += wrong;

  std::fprintf(stderr, "[perfbench] checks done at %.2f s\n",
               NowSeconds() - process_start);
  const double gen_late_p99 = Quantile(late_ms, 0.99);
  std::fprintf(stderr, "[perfbench] generator late p99 %.3f ms, backlog %llu\n",
               gen_late_p99, static_cast<unsigned long long>(backlog));
  std::vector<std::string> invalid;
  if (gen_late_p99 > kMaxGenLateMs) {
    invalid.push_back("generator fell behind: late p99 " +
                      std::to_string(gen_late_p99) + " ms");
  }
  if (backlog >
      std::max(20.0, workload->open_loop_rate() * kMaxBacklogSeconds)) {
    invalid.push_back("open-loop backlog " + std::to_string(backlog) +
                      " at the phase end");
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    const double held_bytes = 16.0 * inst->model.PointsHeld();
    metrics = {
        {"read_p50_ms", WindowedQuantile(read_lat, open_s, 0.5), "ms"},
        {"read_p90_ms", WindowedQuantile(read_lat, open_s, 0.9), "ms"},
        {"read_qps", WindowedRate(completions, closed_s, false), "stmt/s"},
        {"write_p50_ms", WindowedQuantile(write_lat, open_s, 0.5), "ms"},
        {"write_pts_per_s", WindowedRate(completions, closed_s, true),
         "points/s"},
        {"setup_s", Median(setup_s), "s"},
        {"peak_rss_mb", peak_rss_mb, "MiB"},
        {"disk_bytes_per_user_byte", Ratio(disk_bytes, held_bytes), "ratio"},
    };
  } else {
    // --- traced run: replay the open-loop stream in-process on fresh
    // instances, once with spans and once without ------------------------
    inst.reset();
    tsviz::SharedPageCache::Instance().Clear();
    Params replay_params = params;
    replay_params.start_servers = false;
    ReplayResult traced, untraced;
    for (int pass = 0; pass < 2; ++pass) {
      auto made = workload->Setup(replay_params);
      if (!made.ok()) {
        std::fprintf(stderr, "replay set-up failed: %s\n",
                     made.status().ToString().c_str());
        return 1;
      }
      (pass == 0 ? untraced : traced) =
          Replay(made->get(), replay_stmts, /*traced=*/pass == 1);
      made->reset();
      tsviz::SharedPageCache::Instance().Clear();
    }
    failed += traced.failed + untraced.failed;
    attempted += traced.stmts.size() + untraced.stmts.size();
    WriteSpans(traced,
               args.out_dir + "/" + args.workload + "-seed" +
                   std::to_string(args.seed) + "-spans.json",
               kMaxDumpedStmts);

    const double R = static_cast<double>(traced.reads);
    const double W = static_cast<double>(traced.writes);
    const tsviz::QueryStats& qs = traced.query_stats;
    std::vector<double> stmt_us;
    double unattributed = 0;
    for (const StmtTime& s : traced.stmts) {
      stmt_us.push_back(s.dur_us);
      unattributed += s.unattributed_us;
    }
    const double user_bytes = 16.0 * points_acked;
    auto d = [&](const char* name) {
      return static_cast<double>(after.Delta(before, name));
    };
    const double solve = traced.SpanTotalUs("solve_first") +
                         traced.SpanTotalUs("solve_last") +
                         traced.SpanTotalUs("solve_bottom") +
                         traced.SpanTotalUs("solve_top");
    metrics = {
        {"net.queue_wait_p50_ms",
         after.HistQuantile(before, "net_queue_wait_millis", 0.5), "ms"},
        {"net.queue_wait_p99_ms",
         after.HistQuantile(before, "net_queue_wait_millis", 0.99), "ms"},
        {"net.stmts_per_wakeup",
         Ratio(d("server_queries_total"), d("net_epoll_wakeups_total")),
         "stmt/wakeup"},
        {"net.coalesced_insert_frac",
         Ratio(d("batch_insert_coalesced_total"), inserts), "ratio"},
        {"net.shed", d("net_requests_shed_total"), "count"},
        {"net.unattributed_p50_us",
         Quantile(all_ms, 0.5) * 1e3 - Quantile(stmt_us, 0.5), "us"},
        {"sql.parse_us", Ratio(traced.SpanTotalUs("sql.parse"), R + W), "us"},
        {"sql.execute_us", Ratio(traced.SpanTotalUs("sql.execute"), R), "us"},
        {"sql.format_us", Ratio(traced.SpanTotalUs("sql.format"), R), "us"},
        {"sql.reply_bytes", Ratio(traced.reply_bytes, R), "bytes"},
        {"db.lookup_us", Ratio(traced.SpanTotalUs("db.lookup"), R + W), "us"},
        {"db.catalog_lock_wait_ms",
         after.HistSum(before, "catalog_lock_wait_millis"), "ms"},
        {"db.write_us", Ratio(traced.SpanTotalUs("db.write"), W), "us"},
        {"m4.result_cache_hit_ratio",
         Ratio(d("m4_result_cache_hits_total"),
               d("m4_result_cache_hits_total") +
                   d("m4_result_cache_misses_total")),
         "ratio"},
        {"m4.cache_probe_us",
         Ratio(traced.SpanTotalUs("cache_probe", "sql.execute"), R), "us"},
        {"m4.lsm_us", Ratio(traced.SpanTotalUs("m4_lsm"), R), "us"},
        {"m4.solve_us", Ratio(solve, R), "us"},
        {"m4.candidate_rounds_per_query", Ratio(qs.candidate_rounds, R),
         "rounds/query"},
        {"read.metadata_us", Ratio(traced.SpanTotalUs("metadata_read"), R),
         "us"},
        {"read.metadata_reads_per_query", Ratio(qs.metadata_reads, R),
         "reads/query"},
        {"read.chunks_loaded_frac", Ratio(qs.chunks_loaded, qs.chunks_total),
         "ratio"},
        {"read.lazy_load_us", Ratio(traced.SpanTotalUs("lazy_chunk_load"), R),
         "us"},
        {"read.points_scanned_per_query", Ratio(qs.points_scanned, R),
         "points/query"},
        {"index.probe_us", Ratio(traced.SpanTotalUs("index_probe"), R), "us"},
        {"index.lookups_per_query", Ratio(qs.index_lookups, R),
         "lookups/query"},
        {"storage.page_load_us", Ratio(traced.SpanTotalUs("page_load"), R),
         "us"},
        {"storage.pages_decoded_per_query", Ratio(qs.pages_decoded, R),
         "pages/query"},
        {"storage.bytes_read_per_query", Ratio(qs.bytes_read, R),
         "bytes/query"},
        {"storage.page_cache_hit_ratio",
         Ratio(d("page_cache_hits_total"),
               d("page_cache_hits_total") + d("page_cache_misses_total")),
         "ratio"},
        {"storage.page_cache_evictions", d("page_cache_evictions_total"),
         "count"},
        {"encoding.page_load_ns_per_point",
         Ratio(traced.SpanTotalUs("page_load") * 1e3,
               static_cast<double>(qs.pages_decoded) * kPagePoints),
         "ns/point"},
        {"storage.write_us", Ratio(traced.SpanTotalUs("storage.write"), W),
         "us"},
        {"storage.wal_writes_per_stmt",
         Ratio(d("wal_physical_writes_total"), inserts), "writes/stmt"},
        {"storage.wal_bytes_per_user_byte",
         Ratio(d("wal_bytes_total"), user_bytes), "ratio"},
        {"storage.lock_acqs_per_stmt",
         Ratio(d("store_write_lock_acquisitions_total"), inserts),
         "acqs/stmt"},
        {"storage.fsyncs_per_stmt", Ratio(d("fsync"), inserts), "fsyncs/stmt"},
        {"storage.flushes", d("storage_flushes_total"), "count"},
        {"storage.flush_p99_ms",
         after.HistQuantile(before, "storage_flush_millis", 0.99), "ms"},
        {"storage.compaction_bytes_per_user_byte",
         Ratio(d("storage_compaction_bytes_rewritten_total"), user_bytes),
         "ratio"},
        {"storage.compaction_p99_ms",
         after.HistQuantile(before, "storage_compaction_millis", 0.99), "ms"},
        {"storage.files_per_series", files_per_series, "files/series"},
        {"bg.jobs_completed", d("bg_jobs_completed_total"), "count"},
        {"bg.job_ms_total",
         after.HistSum(before, "bg_flush_millis") +
             after.HistSum(before, "bg_compact_millis") +
             after.HistSum(before, "bg_ttl_millis"),
         "ms"},
        {"bg.queue_depth_max", queue_depth_max, "count"},
        {"repl.log_bytes_per_user_byte",
         Ratio(d("repl_log_bytes_total"), user_bytes), "ratio"},
        {"repl.apply_p50_ms",
         after.HistQuantile(before, "repl_apply_millis", 0.5), "ms"},
        {"repl.records_per_pull",
         Ratio(d("repl_records_shipped_total"), d("repl_pulls_total")),
         "records/pull"},
        {"repl.reply_lag_p99_ms", Quantile(lag_ms, 0.99), "ms"},
        {"tail.read_p99_ms", WindowedQuantile(read_lat, open_s, 0.99), "ms"},
        {"tail.write_p90_ms", WindowedQuantile(write_lat, open_s, 0.9), "ms"},
        {"tail.write_p99_ms", WindowedQuantile(write_lat, open_s, 0.99),
         "ms"},
        {"bench.gen_late_p99_ms", gen_late_p99, "ms"},
        {"bench.backlog", static_cast<double>(backlog), "count"},
        {"bench.error_frac", Ratio(failed, attempted), "ratio"},
        {"bench.unattributed_frac", Ratio(unattributed, traced.total_us),
         "ratio"},
        {"bench.trace_overhead_frac",
         Ratio(traced.total_us, untraced.total_us) - 1.0, "ratio"},
    };
  }

  // --- report -------------------------------------------------------------
  const bool correct = failed == 0 && invalid.empty();
  std::string provenance = "{\"workload\": " + JsonString(args.workload) +
                           ", \"seed\": " + std::to_string(args.seed) +
                           ", \"trace\": " + (args.trace ? "1" : "0") +
                           ", \"git_describe\": " + JsonString(args.describe) +
                           ", \"nproc\": " +
                           std::to_string(std::thread::hardware_concurrency()) +
                           ", \"build_type\": " +
                           JsonString(TSVIZ_PERFBENCH_BUILD_TYPE) +
                           ", \"fsync_policy\": \"durable_fsync=0\"" +
                           ", \"seconds\": " + JsonNumber(args.seconds) +
                           ", \"open_loop_rate\": " +
                           JsonNumber(workload->open_loop_rate()) +
                           ", \"scale\": " + JsonNumber(args.scale) +
                           ", \"connections\": " + std::to_string(C) +
                           ", \"counters_scope\": " +
                           JsonString(has_follower ? "primary+follower"
                                                   : "process") +
                           ", \"knobs\": {";
  bool first = true;
  for (const auto& [name, value] : workload->Knobs()) {
    provenance += (first ? "" : ", ") + JsonString(name) + ": " +
                  JsonNumber(value);
    first = false;
  }
  provenance += "}}";

  std::string detail = "{\"provenance\": " + provenance +
                       ", \"error_frac\": " +
                       JsonNumber(Ratio(failed, attempted)) +
                       ", \"invalid\": [";
  for (size_t i = 0; i < invalid.size(); ++i) {
    detail += (i > 0 ? ", " : "") + JsonString(invalid[i]);
  }
  detail += "], \"errors\": [";
  for (size_t i = 0; i < errors.size() && i < 20; ++i) {
    detail += (i > 0 ? ", " : "") + JsonString(errors[i]);
  }
  detail += "], \"setup_runs_s\": [";
  for (size_t i = 0; i < setup_s.size(); ++i) {
    detail += (i > 0 ? ", " : "") + JsonNumber(setup_s[i]);
  }
  detail += "], \"samples_checked\": " + std::to_string(checked.size()) +
            ", \"open_loop_reads\": " + std::to_string(read_ms.size()) +
            ", \"open_loop_writes\": " + std::to_string(write_ms.size()) +
            ", \"result\": " +
            ResultJson(correct, attempted, failed, metrics) + "}\n";
  std::ofstream(args.out_dir + "/" + args.workload + "-seed" +
                std::to_string(args.seed) + "-trace" +
                (args.trace ? "1" : "0") + ".json")
      << detail;

  std::printf("provenance %s\n", provenance.c_str());
  for (const std::string& reason : invalid) {
    std::printf("INVALID: %s\n", reason.c_str());
  }
  for (size_t i = 0; i < errors.size() && i < 10; ++i) {
    std::printf("error: %s\n", errors[i].c_str());
  }
  std::printf("%-40s %14.6g %s\n", "error_frac", Ratio(failed, attempted),
              "ratio");
  for (const Metric& m : metrics) {
    std::printf("%-40s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%s\n", ResultJson(correct, attempted, failed, metrics).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const double process_start = perfbench::NowSeconds();
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: tsviz_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--scale X] "
                 "[--out DIR] [--tmp DIR] [--describe TEXT] "
                 "[--corrupt-sample]\n");
    return 2;
  }
  return perfbench::Run(args, process_start);
}
