#include "sql/executor.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <optional>

#include "common/logging.h"
#include "m4/m4_lsm.h"
#include "m4/parallel.h"
#include "m4/span.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/trace.h"
#include "read/data_reader.h"
#include "read/merge_reader.h"
#include "read/metadata_reader.h"
#include "read/series_reader.h"
#include "sql/parser.h"
#include "storage/quarantine.h"

namespace tsviz::sql {

namespace {

// Resolves the WHERE conjunction into the half-open query range [tqs, tqe),
// defaulting to the series' full data interval.
Result<std::pair<Timestamp, Timestamp>> ResolveTimeRange(
    const StoreView& view, const SelectStatement& stmt) {
  Timestamp tqs = kMinTimestamp;
  Timestamp tqe = kMaxTimestamp;
  bool has_lower = false;
  bool has_upper = false;
  for (const TimeCondition& cond : stmt.where) {
    switch (cond.op) {
      case TokenType::kGreaterEq:
        tqs = has_lower ? std::max(tqs, cond.value) : cond.value;
        has_lower = true;
        break;
      case TokenType::kGreater:
        if (cond.value == kMaxTimestamp) {
          return Status::InvalidArgument("time > MAX is empty");
        }
        tqs = has_lower ? std::max(tqs, cond.value + 1) : cond.value + 1;
        has_lower = true;
        break;
      case TokenType::kLess:
        tqe = has_upper ? std::min(tqe, cond.value) : cond.value;
        has_upper = true;
        break;
      case TokenType::kLessEq:
        if (cond.value == kMaxTimestamp) {
          return Status::InvalidArgument("time <= MAX overflows");
        }
        tqe = has_upper ? std::min(tqe, cond.value + 1) : cond.value + 1;
        has_upper = true;
        break;
      case TokenType::kEq:
        tqs = has_lower ? std::max(tqs, cond.value) : cond.value;
        tqe = has_upper ? std::min(tqe, cond.value + 1) : cond.value + 1;
        has_lower = has_upper = true;
        break;
      default:
        return Status::Internal("unexpected operator in time condition");
    }
  }
  if (!has_lower || !has_upper) {
    TimeRange data = view.DataInterval();
    if (data.Empty()) {
      return Status::NotFound("series is empty and WHERE gives no range");
    }
    if (!has_lower) tqs = data.start;
    if (!has_upper) tqe = data.end + 1;
  }
  if (tqe <= tqs) {
    return Status::InvalidArgument("WHERE clause selects an empty range");
  }
  return std::make_pair(tqs, tqe);
}

Result<ResultSet> ExecuteRawSelect(const StoreView& view,
                                   const SelectStatement& stmt,
                                   Timestamp tqs, Timestamp tqe,
                                   QueryStats* stats) {
  if (stmt.spans.has_value()) {
    return Status::InvalidArgument(
        "GROUP BY requires aggregation functions");
  }
  for (const SelectItem& item : stmt.items) {
    if (item.kind != FuncKind::kRawColumn) {
      return Status::InvalidArgument(
          "cannot mix raw columns with aggregations");
    }
  }
  std::vector<Point> merged;
  {
    obs::TraceSpan span(stats != nullptr ? stats->trace.get() : nullptr,
                        "merge_scan");
    TSVIZ_ASSIGN_OR_RETURN(
        merged, ReadMergedSeries(view, TimeRange(tqs, tqe - 1), stats));
  }
  ResultSet result({"time", "value"});
  for (const Point& p : merged) {
    bool keep = true;
    for (const ValueCondition& cond : stmt.value_where) {
      if (!cond.Matches(p.v)) {
        keep = false;
        break;
      }
    }
    if (keep) result.AddRow({ResultSet::Cell(p.t), ResultSet::Cell(p.v)});
  }
  return result;
}

// The scan-side accumulators for COUNT/SUM/AVG.
struct ScanAggregates {
  std::vector<uint64_t> counts;
  std::vector<double> sums;
};

Result<ScanAggregates> RunScan(const StoreView& view, const M4Query& query,
                               QueryStats* stats) {
  SpanSet spans(query);
  TimeRange range(query.tqs, query.tqe - 1);
  std::vector<ChunkHandle> handles =
      SelectOverlappingChunks(view, range, stats);
  DataReader data_reader(stats);
  std::vector<LazyChunk*> chunks;
  chunks.reserve(handles.size());
  for (const ChunkHandle& handle : handles) {
    chunks.push_back(data_reader.GetChunk(handle));
  }
  MergeReader merger(std::move(chunks),
                     SelectOverlappingDeletes(view, range), range);
  merger.PreloadFullChunks();  // the scan drains every overlapping chunk
  ScanAggregates agg;
  agg.counts.assign(static_cast<size_t>(spans.num_spans()), 0);
  agg.sums.assign(static_cast<size_t>(spans.num_spans()), 0.0);
  Point p;
  while (true) {
    TSVIZ_ASSIGN_OR_RETURN(bool more, merger.Next(&p));
    if (!more) break;
    if (stats != nullptr) ++stats->points_scanned;
    size_t i = static_cast<size_t>(spans.IndexOf(p.t));
    ++agg.counts[i];
    agg.sums[i] += p.v;
  }
  return agg;
}

// Expands kM4 into its eight constituent columns.
std::vector<FuncKind> ExpandItem(const SelectItem& item) {
  if (item.kind != FuncKind::kM4) return {item.kind};
  return {FuncKind::kFirstTime,  FuncKind::kFirstValue,
          FuncKind::kLastTime,   FuncKind::kLastValue,
          FuncKind::kBottomTime, FuncKind::kBottomValue,
          FuncKind::kTopTime,    FuncKind::kTopValue};
}

ResultSet::Cell M4Cell(const M4Row& row, FuncKind kind) {
  if (!row.has_data) return std::monostate{};
  switch (kind) {
    case FuncKind::kFirstTime:
      return row.first.t;
    case FuncKind::kFirstValue:
      return row.first.v;
    case FuncKind::kLastTime:
      return row.last.t;
    case FuncKind::kLastValue:
      return row.last.v;
    case FuncKind::kBottomTime:
      return row.bottom.t;
    case FuncKind::kBottomValue:
      return row.bottom.v;
    case FuncKind::kTopTime:
      return row.top.t;
    case FuncKind::kTopValue:
      return row.top.v;
    default:
      return std::monostate{};
  }
}

// EXPLAIN output: the plan, resolved against store metadata only — no
// chunk data is read.
Result<ResultSet> ExplainSelect(const StoreView& view,
                                const SelectStatement& stmt, Timestamp tqs,
                                Timestamp tqe, bool any_raw, bool any_m4,
                                bool any_scan) {
  ResultSet result({"step", "detail"});
  auto add = [&result](const std::string& step, const std::string& detail) {
    result.AddRow({ResultSet::Cell(step), ResultSet::Cell(detail)});
  };
  add("series", stmt.series);
  add("time_range",
      "[" + std::to_string(tqs) + ", " + std::to_string(tqe) + ")");
  add("spans", std::to_string(stmt.spans.value_or(1)));
  TimeRange range(tqs, tqe - 1);
  size_t partitions_scanned = 0;
  size_t partitions_pruned = 0;
  for (const StorePartition& part : view.partitions()) {
    if (part.interval.Empty() || !part.interval.Overlaps(range)) {
      ++partitions_pruned;
    } else {
      ++partitions_scanned;
    }
  }
  size_t chunks = 0;
  for (const ChunkHandle& chunk : view.chunks()) {
    if (chunk.meta->Interval().Overlaps(range)) ++chunks;
  }
  size_t deletes = 0;
  for (const DeleteRecord& del : view.deletes()) {
    if (del.range.Overlaps(range)) ++deletes;
  }
  add("partitions_total", std::to_string(view.partitions().size()));
  add("partitions_scanned", std::to_string(partitions_scanned));
  add("partitions_pruned", std::to_string(partitions_pruned));
  add("chunks_overlapping", std::to_string(chunks));
  add("deletes_overlapping", std::to_string(deletes));
  if (any_raw) {
    add("path", "raw merged points (loads and merges every chunk)");
  }
  if (any_m4) {
    add("path", "merge-free M4-LSM (metadata candidates, lazy page loads)");
  }
  if (any_scan) {
    add("path", "merged scan for COUNT/SUM/AVG");
  }
  return result;
}

// SHOW METRICS: one exposition line per row. The single column name starts
// with '#', so the CSV header line is itself a valid Prometheus comment and
// the whole CSV reply parses as text exposition format.
ResultSet ShowMetrics() {
  ResultSet result({"# tsviz metrics (Prometheus text exposition)"});
  std::string text = obs::MetricsRegistry::Instance().RenderPrometheus();
  size_t begin = 0;
  while (begin < text.size()) {
    size_t end = text.find('\n', begin);
    if (end == std::string::npos) end = text.size();
    result.AddRow({ResultSet::Cell(text.substr(begin, end - begin))});
    begin = end + 1;
  }
  return result;
}

void AppendTraceRows(const obs::TraceNode& node, size_t depth,
                     ResultSet* out) {
  out->AddRow({ResultSet::Cell(std::string(2 * depth, ' ') + node.name),
               ResultSet::Cell(node.millis),
               ResultSet::Cell(static_cast<int64_t>(node.calls))});
  for (const auto& child : node.children) {
    AppendTraceRows(*child, depth + 1, out);
  }
}

// EXPLAIN ANALYZE: executes the query with a trace attached and reports the
// phase tree followed by the QueryStats counters. The counter rows reuse
// QueryStats::FieldNames/FieldValues, the same single source of truth behind
// ToCsvRow, so the statement and the CSV serialization cannot drift apart.
Result<ResultSet> ExplainAnalyzeSelect(const StoreView& view,
                                       const SelectStatement& stmt,
                                       QueryStats* caller_stats,
                                       const ExecOptions& options) {
  QueryStats query_stats;
  query_stats.trace = std::make_shared<obs::Trace>("query");
  SelectStatement inner = stmt;
  inner.analyze = false;
  Timer timer;
  TSVIZ_ASSIGN_OR_RETURN(ResultSet inner_result,
                         ExecuteSelect(view, inner, &query_stats, options));
  if (inner.limit.has_value()) {
    inner_result.Truncate(static_cast<size_t>(*inner.limit));
  }
  query_stats.trace->root().millis = timer.ElapsedMillis();

  ResultSet result({"node", "millis", "calls"});
  AppendTraceRows(query_stats.trace->root(), 0, &result);
  result.AddRow({ResultSet::Cell(std::string("rows_returned")),
                 ResultSet::Cell(static_cast<int64_t>(
                     inner_result.num_rows())),
                 ResultSet::Cell(std::monostate{})});
  const std::vector<std::string>& names = QueryStats::FieldNames();
  std::vector<uint64_t> values = query_stats.FieldValues();
  for (size_t i = 0; i < names.size(); ++i) {
    result.AddRow({ResultSet::Cell("stat:" + names[i]),
                   ResultSet::Cell(static_cast<int64_t>(values[i])),
                   ResultSet::Cell(std::monostate{})});
  }
  result.AddRow(
      {ResultSet::Cell(std::string("degraded")),
       ResultSet::Cell(static_cast<int64_t>(query_stats.degraded ? 1 : 0)),
       ResultSet::Cell(std::monostate{})});
  if (caller_stats != nullptr) {
    std::shared_ptr<obs::Trace> trace = query_stats.trace;
    *caller_stats += query_stats;
    caller_stats->trace = std::move(trace);
  }
  return result;
}

// One execution attempt. Pulled out of ExecuteSelect so the public entry
// point can retry under RunWithReadTolerance when a corrupt chunk is
// discovered (and quarantined) mid-read.
Result<ResultSet> ExecuteSelectImpl(const StoreView& view,
                                    const SelectStatement& stmt,
                                    QueryStats* stats,
                                    const ExecOptions& options) {
  TSVIZ_ASSIGN_OR_RETURN(auto range, ResolveTimeRange(view, stmt));
  const auto [tqs, tqe] = range;

  bool any_raw = false;
  bool any_m4 = false;
  bool any_scan = false;
  for (const SelectItem& item : stmt.items) {
    if (item.kind == FuncKind::kRawColumn) {
      any_raw = true;
    } else if (IsM4Family(item.kind)) {
      any_m4 = true;
    } else {
      any_scan = true;
    }
  }
  if (stmt.explain) {
    return ExplainSelect(view, stmt, tqs, tqe, any_raw, any_m4, any_scan);
  }
  if (any_raw) {
    if (any_m4 || any_scan) {
      return Status::InvalidArgument(
          "cannot mix raw columns with aggregations");
    }
    TSVIZ_ASSIGN_OR_RETURN(ResultSet raw,
                           ExecuteRawSelect(view, stmt, tqs, tqe, stats));
    if (stmt.limit.has_value()) {
      raw.Truncate(static_cast<size_t>(*stmt.limit));
    }
    return raw;
  }

  if (!stmt.value_where.empty()) {
    return Status::InvalidArgument(
        "value conditions are only supported for raw point selection");
  }
  M4Query query{tqs, tqe, stmt.spans.value_or(1)};
  TSVIZ_RETURN_IF_ERROR(query.Validate());
  SpanSet spans(query);

  M4QueryCache::Lookup m4;
  if (any_m4) {
    if (options.result_cache != nullptr) {
      TSVIZ_ASSIGN_OR_RETURN(
          m4, options.result_cache->GetOrCompute(view, query, stats, {},
                                                 options.parallelism));
    } else {
      M4Result computed;
      if (options.parallelism > 1) {
        TSVIZ_ASSIGN_OR_RETURN(
            computed,
            RunM4LsmParallel(view, query, options.parallelism, stats));
      } else {
        TSVIZ_ASSIGN_OR_RETURN(computed, RunM4Lsm(view, query, stats));
      }
      m4.result = std::make_shared<const M4Result>(std::move(computed));
    }
  }
  ScanAggregates scan;
  if (any_scan) {
    TSVIZ_ASSIGN_OR_RETURN(scan, RunScan(view, query, stats));
  }

  // Column headers: implicit span_start, then one column per expanded item.
  std::vector<std::string> columns = {"span_start"};
  std::vector<FuncKind> kinds;
  for (const SelectItem& item : stmt.items) {
    for (FuncKind kind : ExpandItem(item)) {
      kinds.push_back(kind);
      std::string arg = item.argument.empty() ? "v" : item.argument;
      columns.push_back(FuncName(kind) + "(" + arg + ")");
    }
  }

  // Cells are built only when a caller reads them (ToCsv on a miss, rows()).
  ResultSet::RowBuilder build = [spans, kinds, m4 = m4.result,
                                 scan = std::move(scan)] {
    std::vector<ResultSet::Row> rows;
    rows.reserve(static_cast<size_t>(spans.num_spans()));
    for (int64_t i = 0; i < spans.num_spans(); ++i) {
      ResultSet::Row& cells = rows.emplace_back();
      cells.reserve(kinds.size() + 1);
      cells.emplace_back(spans.SpanStart(i));
      size_t si = static_cast<size_t>(i);
      for (FuncKind kind : kinds) {
        switch (kind) {
          case FuncKind::kCount:
            cells.emplace_back(static_cast<int64_t>(scan.counts[si]));
            break;
          case FuncKind::kSum:
            if (scan.counts[si] == 0) {
              cells.emplace_back(std::monostate{});
            } else {
              cells.emplace_back(scan.sums[si]);
            }
            break;
          case FuncKind::kAvg:
            if (scan.counts[si] == 0) {
              cells.emplace_back(std::monostate{});
            } else {
              cells.emplace_back(scan.sums[si] /
                                 static_cast<double>(scan.counts[si]));
            }
            break;
          default:
            cells.push_back(M4Cell((*m4)[si], kind));
            break;
        }
      }
    }
    return rows;
  };
  const size_t num_rows = static_cast<size_t>(spans.num_spans());
  // Only a pure-M4 hit is answered from the cache entry's text: the scan
  // part of a mixed select is not cached, and a miss renders nothing extra.
  // The entry's text is rendered on its first hit, and again when it was
  // rendered for another column header.
  std::shared_ptr<const std::string> csv;
  if (m4.hit && !any_scan) {
    csv = m4.text;
    if (csv == nullptr || !csv->starts_with(ResultSet::CsvHeader(columns))) {
      csv = std::make_shared<const std::string>(
          ResultSet(columns, num_rows, build).ToCsv());
      options.result_cache->KeepText(m4, csv);
    }
  }
  return ResultSet(std::move(columns), num_rows, std::move(build),
                   std::move(csv));
}

}  // namespace

Result<ResultSet> ExecuteSelect(StoreView view,
                                const SelectStatement& stmt,
                                QueryStats* stats,
                                const ExecOptions& options) {
  if (stmt.items.empty()) {
    return Status::InvalidArgument("empty select list");
  }
  if (stmt.analyze) {
    return ExplainAnalyzeSelect(view, stmt, stats, options);
  }
  // Each attempt charges a private QueryStats that is merged only on
  // success, so a retried attempt does not double-count chunk reads.
  std::optional<Result<ResultSet>> attempt_result;
  Status status = RunWithReadTolerance([&]() {
    QueryStats attempt;
    if (stats != nullptr) attempt.trace = stats->trace;
    attempt_result.emplace(ExecuteSelectImpl(
        view, stmt, stats != nullptr ? &attempt : nullptr, options));
    if (attempt_result->ok() && stats != nullptr) {
      attempt.trace.reset();
      *stats += attempt;
    }
    return attempt_result->ok() ? Status::OK() : attempt_result->status();
  });
  if (!status.ok()) return status;
  return std::move(*attempt_result);
}

namespace {

// FLUSH/COMPACT: the store call itself serializes with background jobs via
// the store's maintenance mutex, so an explicit statement and the policy
// loop can never run the same operation on a store concurrently.
Result<ResultSet> ExecuteMaintenance(Database* db,
                                     const std::optional<std::string>& series,
                                     bool compact) {
  std::vector<std::string> names;
  if (series.has_value()) {
    TSVIZ_RETURN_IF_ERROR(db->GetSeries(*series).status());
    names.push_back(*series);
  } else {
    names = db->ListSeries();
  }
  ResultSet result({"series", "action", "status"});
  for (const std::string& name : names) {
    auto store = db->GetSeriesShared(name);
    if (!store.ok()) continue;  // dropped between listing and here
    Status status = compact ? (*store)->Compact() : (*store)->Flush();
    result.AddRow({ResultSet::Cell(name),
                   ResultSet::Cell(std::string(compact ? "compact" : "flush")),
                   ResultSet::Cell(status.ok() ? std::string("OK")
                                               : status.ToString())});
    TSVIZ_RETURN_IF_ERROR(status);
  }
  return result;
}

// SHOW SERIES: one row per series with its storage shape, read off a
// consistent copy-on-write snapshot per store — no chunk data is loaded.
ResultSet ShowSeries(Database* db) {
  ResultSet result({"series", "partition_interval_ms", "partitions", "files",
                    "chunks", "data_start", "data_end"});
  for (const std::string& name : db->ListSeries()) {
    auto store = db->GetSeriesShared(name);
    if (!store.ok()) continue;  // dropped between listing and here
    StoreView view = (*store)->CurrentView();
    const TimeRange data = view.DataInterval();
    result.AddRow(
        {ResultSet::Cell(name),
         ResultSet::Cell((*store)->partition_interval()),
         ResultSet::Cell(static_cast<int64_t>(view.partitions().size())),
         ResultSet::Cell(static_cast<int64_t>(view.files().size())),
         ResultSet::Cell(static_cast<int64_t>(view.chunks().size())),
         data.Empty() ? ResultSet::Cell(std::monostate{})
                      : ResultSet::Cell(data.start),
         data.Empty() ? ResultSet::Cell(std::monostate{})
                      : ResultSet::Cell(data.end)});
  }
  return result;
}

// SHOW QUERIES: the flight recorder's query history, newest first.
ResultSet ShowQueries() {
  ResultSet result({"id", "statement", "millis", "rows", "degraded",
                    "chunks_loaded", "points_scanned", "sampled", "slow",
                    "status"});
  for (const obs::RecordedEvent& event : obs::FlightRecorder::Instance()
           .Snapshot(SIZE_MAX, obs::EventKind::kQuery)) {
    result.AddRow({ResultSet::Cell(static_cast<int64_t>(event.id)),
                   ResultSet::Cell(event.statement),
                   ResultSet::Cell(event.millis),
                   ResultSet::Cell(static_cast<int64_t>(event.rows)),
                   ResultSet::Cell(static_cast<int64_t>(event.degraded)),
                   ResultSet::Cell(static_cast<int64_t>(event.chunks_loaded)),
                   ResultSet::Cell(static_cast<int64_t>(event.points_scanned)),
                   ResultSet::Cell(static_cast<int64_t>(event.sampled)),
                   ResultSet::Cell(static_cast<int64_t>(event.slow)),
                   ResultSet::Cell(event.status)});
  }
  return result;
}

// SHOW PROFILE [RESET]: every span tree the recorder has captured (sampled
// queries, slow queries, EXPLAIN ANALYZE, background jobs), merged by phase
// name — the "where does time go overall" view, no re-running needed.
ResultSet ShowProfile(bool reset) {
  obs::FlightRecorder& recorder = obs::FlightRecorder::Instance();
  uint64_t traces_merged = 0;
  std::unique_ptr<obs::TraceNode> profile =
      recorder.ProfileSnapshot(&traces_merged);
  if (reset) recorder.ResetProfile();
  ResultSet result({"node", "millis", "calls"});
  result.AddRow({ResultSet::Cell(std::string("traces_merged")),
                 ResultSet::Cell(std::monostate{}),
                 ResultSet::Cell(static_cast<int64_t>(traces_merged))});
  for (const auto& tree : profile->children) {
    AppendTraceRows(*tree, 0, &result);
  }
  return result;
}

// DUMP TRACE '<path>': exports the buffered events as Chrome trace-event
// JSON for Perfetto / chrome://tracing.
Result<ResultSet> DumpTrace(const std::string& path) {
  obs::FlightRecorder& recorder = obs::FlightRecorder::Instance();
  const size_t events = recorder.event_count();
  std::string json = recorder.DumpChromeTrace();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::IoError("cannot open '" + path + "' for writing");
  }
  out << json;
  out.close();
  if (!out) {
    return Status::IoError("short write to '" + path + "'");
  }
  ResultSet result({"path", "events", "bytes"});
  result.AddRow({ResultSet::Cell(path),
                 ResultSet::Cell(static_cast<int64_t>(events)),
                 ResultSet::Cell(static_cast<int64_t>(json.size()))});
  return result;
}

// SHOW REPLICATION: key,value rows describing the node's replication role
// and progress. On a standalone node it still answers (role STANDALONE) so
// tooling can probe any node with one statement.
ResultSet ShowReplication(Database* db) {
  const ReplicationStatus rs = db->replication_status();
  ResultSet result({"key", "value"});
  auto add = [&result](const std::string& key, const std::string& value) {
    result.AddRow({ResultSet::Cell(key), ResultSet::Cell(value)});
  };
  add("role", ReplicationRoleName(rs.role));
  add("state", rs.state);
  switch (rs.role) {
    case ReplicationRole::kStandalone:
      break;
    case ReplicationRole::kPrimary:
      add("listen_port", std::to_string(rs.listen_port));
      add("last_seq", std::to_string(rs.last_seq));
      add("divergences", std::to_string(rs.divergences));
      break;
    case ReplicationRole::kReplica:
      add("primary", rs.primary);
      add("applied_seq", std::to_string(rs.last_seq));
      add("primary_seq", std::to_string(rs.primary_seq));
      add("lag_ms", std::to_string(rs.lag_ms));
      add("max_staleness_ms", std::to_string(db->max_staleness_ms()));
      add("reconnects", std::to_string(rs.reconnects));
      add("divergences", std::to_string(rs.divergences));
      break;
  }
  return result;
}

ResultSet ShowJobs(Database* db) {
  ResultSet result({"id", "key", "type", "state", "periodic", "runs",
                    "last_millis", "last_status"});
  for (const bg::JobInfo& job : db->maintenance().ListJobs()) {
    result.AddRow({ResultSet::Cell(static_cast<int64_t>(job.id)),
                   ResultSet::Cell(job.key),
                   ResultSet::Cell(job.type),
                   ResultSet::Cell(std::string(bg::JobStateName(job.state))),
                   ResultSet::Cell(static_cast<int64_t>(job.periodic ? 1 : 0)),
                   ResultSet::Cell(static_cast<int64_t>(job.runs)),
                   ResultSet::Cell(job.last_millis),
                   ResultSet::Cell(job.last_status)});
  }
  return result;
}

}  // namespace

Result<ResultSet> ExecuteStatement(Database* db, const Statement& statement,
                                   QueryStats* stats) {
  if (std::holds_alternative<ShowMetricsStatement>(statement)) {
    return ShowMetrics();
  }
  if (std::holds_alternative<ShowJobsStatement>(statement)) {
    return ShowJobs(db);
  }
  if (std::holds_alternative<ShowSeriesStatement>(statement)) {
    return ShowSeries(db);
  }
  if (std::holds_alternative<ShowQueriesStatement>(statement)) {
    return ShowQueries();
  }
  if (std::holds_alternative<ShowReplicationStatement>(statement)) {
    return ShowReplication(db);
  }
  if (const ShowProfileStatement* profile =
          std::get_if<ShowProfileStatement>(&statement)) {
    return ShowProfile(profile->reset);
  }
  if (const DumpTraceStatement* dump =
          std::get_if<DumpTraceStatement>(&statement)) {
    return DumpTrace(dump->path);
  }
  if (const FlushStatement* flush = std::get_if<FlushStatement>(&statement)) {
    return ExecuteMaintenance(db, flush->series, /*compact=*/false);
  }
  if (const CompactStatement* comp =
          std::get_if<CompactStatement>(&statement)) {
    return ExecuteMaintenance(db, comp->series, /*compact=*/true);
  }
  if (const InsertStatement* insert =
          std::get_if<InsertStatement>(&statement)) {
    if (insert->points.size() == 1) {
      TSVIZ_RETURN_IF_ERROR(db->Write(insert->series, insert->points[0].first,
                                      insert->points[0].second));
    } else {
      // Multi-row INSERT: one store append + one WAL write for the whole
      // statement instead of one of each per row.
      std::vector<Point> points;
      points.reserve(insert->points.size());
      for (const auto& [t, v] : insert->points) points.push_back(Point{t, v});
      TSVIZ_RETURN_IF_ERROR(db->WriteBatch(insert->series, points));
    }
    ResultSet result({"series", "points"});
    result.AddRow({ResultSet::Cell(insert->series),
                   ResultSet::Cell(static_cast<int64_t>(
                       insert->points.size()))});
    return result;
  }
  if (const SetStatement* set = std::get_if<SetStatement>(&statement)) {
    std::string name = set->name;
    std::transform(name.begin(), name.end(), name.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    ResultSet result({"setting", "value"});
    if (set->text.has_value()) {
      std::string text = *set->text;
      std::transform(text.begin(), text.end(), text.begin(),
                     [](unsigned char c) { return std::tolower(c); });
      TSVIZ_RETURN_IF_ERROR(db->ApplySetting(name, text));
      result.AddRow({ResultSet::Cell(name), ResultSet::Cell(text)});
    } else {
      TSVIZ_RETURN_IF_ERROR(db->ApplySetting(name, set->value));
      result.AddRow({ResultSet::Cell(name), ResultSet::Cell(set->value)});
    }
    return result;
  }
  const SelectStatement& stmt = std::get<SelectStatement>(statement);
  // Bounded-staleness gate: on a replica past its staleness bound (or
  // quarantined mid-resync) the SELECT fails retryably instead of serving
  // arbitrarily old data.
  TSVIZ_RETURN_IF_ERROR(db->CheckReplicaRead());
  TSVIZ_ASSIGN_OR_RETURN(TsStore * store, db->GetSeries(stmt.series));
  ExecOptions options;
  options.result_cache = &db->result_cache();
  options.parallelism = db->query_parallelism();
  TSVIZ_ASSIGN_OR_RETURN(ResultSet result,
                         ExecuteSelect(*store, stmt, stats, options));
  // EXPLAIN ANALYZE applies LIMIT to the traced query itself; truncating
  // here would clip the phase tree instead of the result rows.
  if (stmt.limit.has_value() && !stmt.analyze) {
    result.Truncate(static_cast<size_t>(*stmt.limit));
  }
  return result;
}

Result<ResultSet> ExecuteRecorded(Database* db, const Statement& statement,
                                  const std::string& text,
                                  QueryStats* caller_stats,
                                  const RecordContext& context) {
  obs::FlightRecorder& recorder = obs::FlightRecorder::Instance();
  QueryStats local;
  QueryStats* stats = caller_stats != nullptr ? caller_stats : &local;

  // Decide up front whether this statement carries a trace. Only plain
  // SELECTs are eligible: EXPLAIN does not execute, and EXPLAIN ANALYZE
  // builds its own trace (which lands in stats->trace on return and is
  // recorded all the same).
  const SelectStatement* select = std::get_if<SelectStatement>(&statement);
  const bool plain_select =
      select != nullptr && !select->explain && !select->analyze;
  bool sampled = false;
  if (plain_select && stats->trace == nullptr) {
    if (recorder.ShouldSampleTrace()) {
      stats->trace = std::make_shared<obs::Trace>("query");
      sampled = true;
    } else if (recorder.slow_query_millis() > 0.0) {
      // A slow query cannot be traced after the fact, so an armed slow-query
      // log traces every SELECT — the cost is opt-in via the knob.
      stats->trace = std::make_shared<obs::Trace>("query");
    }
  }

  Timer timer;
  Result<ResultSet> result = ExecuteStatement(db, statement, stats);
  const double millis = timer.ElapsedMillis();
  if (stats->trace != nullptr && stats->trace->root().millis == 0.0) {
    stats->trace->root().millis = millis;
  }

  const double slow_millis = recorder.slow_query_millis();
  const bool slow = slow_millis > 0.0 && millis >= slow_millis;
  if (slow) {
    TSVIZ_WARN << "slow query" << Field("millis", millis)
               << Field("threshold", slow_millis)
               << Field("statement", text);
  }

  // Graft the network-queue wait into the trace before the recorder takes
  // shared ownership — mutating the tree after Record would race readers.
  if (stats->trace != nullptr && context.net_queue_wait_millis >= 0.0) {
    obs::TraceNode* wait = stats->trace->root().Child("net_queue_wait");
    wait->millis += context.net_queue_wait_millis;
    wait->calls += 1;
  }

  obs::RecordedEvent event;
  event.kind = obs::EventKind::kQuery;
  event.millis = millis;
  event.statement = text;
  event.status = result.ok() ? "OK" : result.status().ToString();
  event.rows = result.ok() ? result->num_rows() : 0;
  event.degraded = stats->degraded;
  event.sampled = sampled;
  event.slow = slow;
  event.chunks_total = stats->chunks_total;
  event.chunks_loaded = stats->chunks_loaded;
  event.points_scanned = stats->points_scanned;
  event.bytes_read = stats->bytes_read;
  event.metadata_reads = stats->metadata_reads;
  event.trace = stats->trace;
  recorder.Record(std::move(event));
  return result;
}

Result<ResultSet> ExecuteQuery(Database* db, const std::string& statement,
                               QueryStats* stats) {
  TSVIZ_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(statement));
  return ExecuteRecorded(db, stmt, statement, stats);
}

namespace {

obs::Counter& CoalescedStatementsTotal() {
  static obs::Counter& c = obs::GetCounter(
      "batch_insert_coalesced_total",
      "Single-point INSERT statements coalesced into a batched store "
      "write");
  return c;
}
obs::Counter& CoalescedGroupsTotal() {
  static obs::Counter& c = obs::GetCounter(
      "batch_insert_groups_total",
      "Coalesced INSERT groups written via WriteBatch (each covers >= 2 "
      "statements)");
  return c;
}

}  // namespace

std::vector<Result<ResultSet>> ExecuteInsertBatch(
    Database* db, const std::vector<std::string>& lines,
    const RecordContext& context) {
  const size_t n = lines.size();
  std::vector<Result<ResultSet>> results;
  results.reserve(n);

  // Parse everything up front so run detection can look ahead without
  // re-parsing.
  std::vector<Result<Statement>> parsed;
  parsed.reserve(n);
  for (const std::string& line : lines) parsed.push_back(ParseStatement(line));

  // The coalescible shape: a well-parsed single-point INSERT into a validly
  // named series. Anything else (parse error, multi-row INSERT, invalid
  // name) drops out of the run and executes — and errors — individually.
  auto coalescible = [&parsed](size_t i) -> const InsertStatement* {
    if (!parsed[i].ok()) return nullptr;
    const InsertStatement* insert = std::get_if<InsertStatement>(&*parsed[i]);
    if (insert == nullptr || insert->points.size() != 1) return nullptr;
    if (!IsValidSeriesName(insert->series)) return nullptr;
    return insert;
  };

  size_t i = 0;
  while (i < n) {
    const InsertStatement* first = coalescible(i);
    size_t run = 1;
    if (first != nullptr) {
      while (i + run < n) {
        const InsertStatement* next = coalescible(i + run);
        if (next == nullptr || next->series != first->series) break;
        ++run;
      }
    }
    if (first == nullptr || run == 1) {
      // Exactly the unbatched path: parse errors reply without recording
      // (matching SqlServer::ExecuteLine), everything else goes through the
      // flight recorder.
      if (!parsed[i].ok()) {
        results.push_back(parsed[i].status());
      } else {
        results.push_back(
            ExecuteRecorded(db, *parsed[i], lines[i], nullptr, context));
      }
      ++i;
      continue;
    }

    // A run of >= 2 consecutive single-point INSERTs into one series: one
    // WriteBatch (one store-lock acquisition, one WAL write), per-statement
    // replies and recorder events preserved. A failed batch write reports
    // the same error on every statement of the run.
    std::vector<Point> points;
    points.reserve(run);
    for (size_t k = i; k < i + run; ++k) {
      const InsertStatement* insert = coalescible(k);
      points.push_back(Point{insert->points[0].first,
                             insert->points[0].second});
    }
    Timer timer;
    Status status = db->WriteBatch(first->series, points);
    // Every statement of the run completes with the one store write, so
    // each records the write's whole latency.
    const double run_millis = timer.ElapsedMillis();
    CoalescedStatementsTotal().Inc(run);
    CoalescedGroupsTotal().Inc();
    for (size_t k = i; k < i + run; ++k) {
      obs::RecordedEvent event;
      event.kind = obs::EventKind::kQuery;
      event.millis = run_millis;
      event.statement = lines[k];
      event.status = status.ok() ? "OK" : status.ToString();
      event.rows = status.ok() ? 1 : 0;
      obs::FlightRecorder::Instance().Record(std::move(event));
      if (status.ok()) {
        ResultSet result({"series", "points"});
        result.AddRow({ResultSet::Cell(first->series),
                       ResultSet::Cell(static_cast<int64_t>(1))});
        results.push_back(std::move(result));
      } else {
        results.push_back(status);
      }
    }
    i += run;
  }
  return results;
}

}  // namespace tsviz::sql
