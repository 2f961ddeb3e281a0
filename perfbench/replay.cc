#include "replay.h"

#include <chrono>
#include <fstream>
#include <memory>
#include <variant>

#include "obs/trace.h"
#include "report.h"
#include "sql/executor.h"
#include "sql/parser.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

// Opens and closes spans around the calls the replay makes; a no-op when
// the replay is untraced.
class SpanRecorder {
 public:
  SpanRecorder(bool on, std::vector<Span>* spans)
      : on_(on), spans_(spans), origin_(Clock::now()) {}

  double NowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  int Open(const char* name, uint64_t stmt) {
    if (!on_) return -1;
    Span span;
    span.name = name;
    span.stmt = stmt;
    span.parent = current_;
    span.start_us = NowUs();
    spans_->push_back(std::move(span));
    current_ = static_cast<int>(spans_->size()) - 1;
    return current_;
  }

  void Close(int index) {
    if (index < 0) return;
    Span& span = (*spans_)[static_cast<size_t>(index)];
    span.dur_us = NowUs() - span.start_us;
    current_ = span.parent;
  }

  // Adds the engine's span tree below `parent` (the tree's root stands for
  // the parent itself, so only its descendants are added).
  void Attach(const tsviz::obs::TraceNode& node, int parent, uint64_t stmt) {
    for (const auto& child : node.children) {
      Span span;
      span.name = child->name;
      span.stmt = stmt;
      span.parent = parent;
      span.start_us = (*spans_)[static_cast<size_t>(parent)].start_us;
      span.dur_us = child->millis * 1e3;
      span.calls = child->calls;
      spans_->push_back(std::move(span));
      Attach(*child, static_cast<int>(spans_->size()) - 1, stmt);
    }
  }

 private:
  bool on_;
  std::vector<Span>* spans_;
  Clock::time_point origin_;
  int current_ = -1;
};

tsviz::Status ReplayWrite(Instance* instance,
                          const tsviz::sql::InsertStatement& insert,
                          SpanRecorder* rec, uint64_t id) {
  std::vector<Point> points;
  for (const auto& [t, v] : insert.points) points.push_back(Point{t, v});
  tsviz::Database* db = instance->db.get();
  const int write = rec->Open("db.write", id);
  tsviz::Status status;
  if (db->replication_role() == tsviz::ReplicationRole::kPrimary) {
    status = points.size() == 1
                 ? db->Write(insert.series, points[0].t, points[0].v)
                 : db->WriteBatch(insert.series, points);
  } else {
    // On a standalone database Database::WriteBatch is exactly a catalog
    // lookup plus the store write; timing the two calls separately shows
    // the storage layer's share.
    const int lookup = rec->Open("db.lookup", id);
    auto store = db->GetOrCreateSeries(insert.series);
    rec->Close(lookup);
    if (!store.ok()) {
      status = store.status();
    } else {
      const int storage = rec->Open("storage.write", id);
      status = points.size() == 1 ? (*store)->Write(points[0].t, points[0].v)
                                  : (*store)->WriteBatch(points);
      rec->Close(storage);
    }
  }
  rec->Close(write);
  return status;
}

}  // namespace

ReplayResult Replay(Instance* instance, const std::vector<Stmt>& stmts,
                    bool traced) {
  ReplayResult result;
  SpanRecorder rec(traced, &result.spans);
  for (uint64_t id = 0; id < stmts.size(); ++id) {
    const Stmt& stmt = stmts[id];
    const size_t first_span = result.spans.size();
    const double start = rec.NowUs();
    bool ok = false;

    const int parse = rec.Open("sql.parse", id);
    auto parsed = tsviz::sql::ParseStatement(stmt.text);
    rec.Close(parse);
    if (parsed.ok()) {
      if (const auto* insert =
              std::get_if<tsviz::sql::InsertStatement>(&*parsed)) {
        ++result.writes;
        ok = ReplayWrite(instance, *insert, &rec, id).ok();
      } else if (const auto* select =
                     std::get_if<tsviz::sql::SelectStatement>(&*parsed)) {
        ++result.reads;
        tsviz::Database* db = instance->read_db();
        const int lookup = rec.Open("db.lookup", id);
        tsviz::Status gate = db->CheckReplicaRead();
        auto store = db->GetSeries(select->series);
        rec.Close(lookup);
        if (gate.ok() && store.ok()) {
          tsviz::QueryStats stats;
          if (traced) {
            stats.trace = std::make_shared<tsviz::obs::Trace>("sql.execute");
          }
          tsviz::sql::ExecOptions options;
          options.result_cache = &db->result_cache();
          options.parallelism = db->query_parallelism();
          const int execute = rec.Open("sql.execute", id);
          auto rows = tsviz::sql::ExecuteSelect(**store, *select, &stats,
                                                options);
          rec.Close(execute);
          if (traced) rec.Attach(stats.trace->root(), execute, id);
          stats.trace.reset();
          result.query_stats += stats;
          if (rows.ok()) {
            const int format = rec.Open("sql.format", id);
            const std::string csv = rows->ToCsv();
            rec.Close(format);
            result.reply_bytes += csv.size();
            ok = true;
          }
        }
      }
    }
    if (!ok) ++result.failed;

    StmtTime time;
    time.id = id;
    time.kind = stmt.kind;
    time.dur_us = rec.NowUs() - start;
    double covered = 0;
    for (size_t i = first_span; i < result.spans.size(); ++i) {
      if (result.spans[i].parent < 0) covered += result.spans[i].dur_us;
    }
    time.unattributed_us = traced ? time.dur_us - covered : 0.0;
    result.total_us += time.dur_us;
    result.stmts.push_back(time);
  }
  return result;
}

double ReplayResult::SpanTotalUs(const std::string& name) const {
  double total = 0;
  for (const Span& span : spans) {
    if (span.name != name) continue;
    bool nested = false;
    for (int p = span.parent; p >= 0 && !nested;
         p = spans[static_cast<size_t>(p)].parent) {
      nested = spans[static_cast<size_t>(p)].name == name;
    }
    if (!nested) total += span.dur_us;
  }
  return total;
}

double ReplayResult::SpanTotalUs(const std::string& name,
                                 const std::string& parent) const {
  double total = 0;
  for (const Span& span : spans) {
    if (span.name == name && span.parent >= 0 &&
        spans[static_cast<size_t>(span.parent)].name == parent) {
      total += span.dur_us;
    }
  }
  return total;
}

bool WriteSpans(const ReplayResult& result, const std::string& path,
                size_t max_stmts) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"stmts\": [";
  for (size_t i = 0; i < result.stmts.size() && i < max_stmts; ++i) {
    const StmtTime& s = result.stmts[i];
    out << (i > 0 ? ",\n" : "\n") << "{\"id\": " << s.id << ", \"kind\": "
        << (s.kind == Stmt::kRead ? "\"read\"" : "\"write\"")
        << ", \"dur_us\": " << JsonNumber(s.dur_us)
        << ", \"unattributed_us\": " << JsonNumber(s.unattributed_us) << "}";
  }
  out << "],\n\"spans\": [";
  bool first = true;
  for (size_t i = 0; i < result.spans.size(); ++i) {
    const Span& span = result.spans[i];
    if (span.stmt >= max_stmts) break;
    out << (first ? "\n" : ",\n") << "{\"i\": " << i
        << ", \"name\": " << JsonString(span.name) << ", \"stmt\": "
        << span.stmt << ", \"parent\": " << span.parent
        << ", \"start_us\": " << JsonNumber(span.start_us)
        << ", \"dur_us\": " << JsonNumber(span.dur_us)
        << ", \"calls\": " << span.calls << "}";
    first = false;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
