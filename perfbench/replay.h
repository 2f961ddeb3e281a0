#ifndef TSVIZ_PERFBENCH_REPLAY_H_
#define TSVIZ_PERFBENCH_REPLAY_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/stats.h"
#include "workloads.h"

namespace perfbench {

// One timed interval of a replayed statement. Spans the benchmark opens
// around the public calls it makes carry real start/end times; spans the
// engine recorded in QueryStats::trace (merged by name, no timestamps)
// carry only their duration and are placed at their parent's start.
struct Span {
  std::string name;
  uint64_t stmt = 0;
  int parent = -1;      // index into the span list, -1 for top level
  double start_us = 0;  // relative to the replay start
  double dur_us = 0;
  uint64_t calls = 1;
};

// The statement-level record: wall time and the part no span covers.
struct StmtTime {
  uint64_t id = 0;
  Stmt::Kind kind = Stmt::kRead;
  double dur_us = 0;
  double unattributed_us = 0;
};

struct ReplayResult {
  std::vector<Span> spans;          // empty for an untraced replay
  std::vector<StmtTime> stmts;
  tsviz::QueryStats query_stats;    // summed over every SELECT
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t reply_bytes = 0;
  uint64_t failed = 0;
  double total_us = 0;              // sum of statement times

  // Sum of inclusive durations of spans named `name` (nested repeats of
  // the same name are counted once).
  double SpanTotalUs(const std::string& name) const;
  // Same, restricted to spans whose parent is named `parent`.
  double SpanTotalUs(const std::string& name, const std::string& parent) const;
};

// Replays `stmts` in order, in-process, against `instance` (reads go to the
// follower when there is one). With `traced`, opens a span around each
// public call: sql.parse, db.lookup, sql.execute (with the engine's own
// spans nested below it), sql.format for reads; sql.parse, db.write (and
// on a standalone database its db.lookup + storage.write) for writes.
ReplayResult Replay(Instance* instance, const std::vector<Stmt>& stmts,
                    bool traced);

// Writes the spans and statement records as JSON (first `max_stmts`
// statements only).
bool WriteSpans(const ReplayResult& result, const std::string& path,
                size_t max_stmts);

}  // namespace perfbench

#endif  // TSVIZ_PERFBENCH_REPLAY_H_
