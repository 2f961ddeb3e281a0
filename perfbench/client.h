#ifndef TSVIZ_PERFBENCH_CLIENT_H_
#define TSVIZ_PERFBENCH_CLIENT_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {

// A statement due at `at` seconds after the phase start.
struct Scheduled {
  double at = 0.0;
  Stmt stmt;
};

// A read reply kept for the correctness check after timing.
struct Sample {
  Stmt stmt;
  std::string reply;
  size_t acked_before = 0;  // writes the connection acknowledged before it
                            // in the same phase
};

// What one connection saw during one phase.
struct ConnResult {
  // Per SELECT / INSERT: (scheduled send, latency from it to the reply's
  // last byte), seconds after the phase start and milliseconds.
  std::vector<std::pair<double, double>> read_ms;
  std::vector<std::pair<double, double>> write_ms;
  std::vector<double> late_ms;   // open loop: actual send - scheduled send
  uint64_t attempted = 0;
  uint64_t failed = 0;           // ERROR replies, wrong acks, drops
  uint64_t inserts = 0;
  uint64_t backlog = 0;          // open loop: unanswered at the phase end
  // Closed loop: (completion time, points written; 0 for a SELECT) of
  // every statement answered before the phase end.
  std::vector<std::pair<double, uint64_t>> completions;
  std::vector<double> lag_ms;    // replica_lag_ms rows of follower replies
  std::vector<Sample> samples;
  std::vector<Stmt> acked;       // acknowledged writes (points only)
  std::vector<std::string> errors;  // first few failure messages
};

// Shared pacing state of the closed loop: the paced connection sends only
// while its statements stay within `share` of all statements.
struct Pacing {
  double share = 0.0;
  std::atomic<uint64_t> others_done{0};  // statements of unpaced connections
};

struct PhaseOptions {
  int port = 0;
  double seconds = 1.0;  // phase length
};

// Open loop: sends `schedule` on its due times over one pipelined
// connection; a slow reply never delays the next send.
ConnResult RunOpenLoop(const PhaseOptions& options,
                       const std::vector<Scheduled>& schedule,
                       double start_wall);

// Closed loop: one statement outstanding, drawn from `gen`, until the
// phase ends.
ConnResult RunClosedLoop(const PhaseOptions& options, StreamGen* gen,
                         Pacing* pacing, bool paced, double start_wall);

// Seconds on the steady clock (shared time base of every phase).
double NowSeconds();

}  // namespace perfbench

#endif  // TSVIZ_PERFBENCH_CLIENT_H_
