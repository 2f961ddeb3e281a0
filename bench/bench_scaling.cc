// Scaling: pooled M4-LSM latency vs executor threads, cold vs warm cache.
//
// Workload is Figure 10's messy store (10% out-of-order arrivals, 10%
// deletes) at a span count high enough that most chunks are split by span
// boundaries — the decode-heavy regime where the shared page cache and the
// pooled operator matter. "Cold" clears the process-wide page cache before
// every run; "warm" primes it once and then reuses the decoded pages.
//
// Besides the usual bench_results/scaling.{csv,json} pair this bench writes
// a BENCH_scaling.json summary into the working directory with the headline
// ratios: warm-over-cold and pooled-4-threads-over-1-thread.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <thread>

#include "common/logging.h"
#include "harness.h"
#include "m4/cache.h"
#include "m4/m4_lsm.h"
#include "m4/parallel.h"
#include "storage/page_cache.h"

namespace tsviz::bench {
namespace {

constexpr int kReps = 5;

bool BitIdentical(const M4Result& a, const M4Result& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].has_data != b[i].has_data) return false;
    if (!a[i].has_data) continue;
    if (!(a[i].first == b[i].first && a[i].last == b[i].last &&
          a[i].bottom == b[i].bottom && a[i].top == b[i].top)) {
      return false;
    }
  }
  return true;
}

struct ThreadRun {
  int threads = 0;
  Measurement cold;     // page + result cache cleared before every run
  Measurement warm;     // page cache primed, result cache bypassed
  Measurement repeat;   // identical repeated query via M4QueryCache
  bool identical = false;
};

// Median-latency run of `reps` pooled executions. Unlike TimeQuery this
// leaves the page cache alone between reps; the caller decides cold/warm.
Measurement TimePooled(const TsStore& store, const M4Query& query,
                       int threads, bool clear_each_rep) {
  std::vector<Measurement> runs;
  runs.reserve(kReps);
  for (int r = 0; r < kReps; ++r) {
    if (clear_each_rep) SharedPageCache::Instance().Clear();
    Measurement m;
    Timer timer;
    Result<M4Result> result =
        RunM4LsmParallel(store, query, threads, &m.stats);
    m.millis = timer.ElapsedMillis();
    TSVIZ_CHECK(result.ok());
    runs.push_back(m);
  }
  std::sort(runs.begin(), runs.end(),
            [](const Measurement& a, const Measurement& b) {
              return a.millis < b.millis;
            });
  return runs[runs.size() / 2];
}

// Median latency of `kReps` repeated identical queries served through the
// result cache (primed by the caller), i.e. what a dashboard refresh costs.
Measurement TimeRepeated(M4QueryCache& cache, const TsStore& store,
                         const M4Query& query, int threads) {
  std::vector<Measurement> runs;
  runs.reserve(kReps);
  for (int r = 0; r < kReps; ++r) {
    Measurement m;
    Timer timer;
    Result<M4QueryCache::Lookup> result =
        cache.GetOrCompute(store, query, &m.stats, {}, threads);
    m.millis = timer.ElapsedMillis();
    TSVIZ_CHECK(result.ok());
    runs.push_back(m);
  }
  std::sort(runs.begin(), runs.end(),
            [](const Measurement& a, const Measurement& b) {
              return a.millis < b.millis;
            });
  return runs[runs.size() / 2];
}

std::string FormatRatio(double r) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", r);
  return buf;
}

std::string FormatMicros(double ms) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", ms);
  return buf;
}

int Run() {
  const double scale = ScaleFromEnv();
  const DatasetKind kind = DatasetKind::kKob;
  const size_t points = ScaledPoints(kind, scale);

  StorageSpec spec;
  spec.overlap_fraction = 0.1;
  spec.delete_fraction = 0.1;
  auto built = BuildDatasetStore(kind, scale, spec);
  if (!built.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 built.status().ToString().c_str());
    return 1;
  }
  const TimeRange range = built->data_range;
  // ~100 points per span: narrower than a 200-point chunk, so every chunk
  // straddles a span boundary and must be touched (and decoded), while the
  // per-span solve work stays small enough that decode dominates cold runs.
  const int64_t w = std::clamp<int64_t>(
      static_cast<int64_t>(points) / 100, 500, 2000);
  const M4Query query{range.start, range.end + 1, w};

  SharedPageCache::Instance().Clear();
  auto serial = RunM4Lsm(*built->store, query, nullptr);
  if (!serial.ok()) {
    std::fprintf(stderr, "serial run failed: %s\n",
                 serial.status().ToString().c_str());
    return 1;
  }

  ResultTable table({"threads", "cold_ms", "warm_ms", "repeat_ms",
                     "cold_pages", "warm_pages", "identical"});
  std::vector<ThreadRun> runs;
  for (int threads : {1, 2, 4, 8}) {
    ThreadRun run;
    run.threads = threads;

    run.cold = TimePooled(*built->store, query, threads,
                          /*clear_each_rep=*/true);

    SharedPageCache::Instance().Clear();
    auto primed = RunM4LsmParallel(*built->store, query, threads, nullptr);
    TSVIZ_CHECK(primed.ok());
    run.identical = BitIdentical(serial.value(), primed.value());
    run.warm = TimePooled(*built->store, query, threads,
                          /*clear_each_rep=*/false);

    M4QueryCache result_cache(8);
    auto cached = result_cache.GetOrCompute(*built->store, query, nullptr,
                                            {}, threads);  // prime
    TSVIZ_CHECK(cached.ok());
    run.repeat = TimeRepeated(result_cache, *built->store, query, threads);

    table.AddRow({std::to_string(threads), FormatMillis(run.cold.millis),
                  FormatMillis(run.warm.millis),
                  FormatMicros(run.repeat.millis),
                  FormatCount(run.cold.stats.pages_decoded),
                  FormatCount(run.warm.stats.pages_decoded),
                  run.identical ? "yes" : "NO"});
    runs.push_back(run);
  }

  std::printf(
      "Scaling: pooled M4-LSM, threads x {cold,warm} "
      "(dataset=KOB points=%zu w=%lld scale=%.3f)\n\n",
      points, static_cast<long long>(w), scale);
  table.Print();
  if (Status s = table.WriteCsv("scaling"); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
  }

  const ThreadRun& t1 = runs[0];
  const ThreadRun& t4 = runs[2];
  // "Warm repeated query" is the wired query path's answer: the M4 result
  // cache (backed by the page cache underneath) serves the repeat.
  const double warm_speedup =
      t1.cold.millis / std::max(t1.repeat.millis, 1e-4);
  const double page_warm_speedup =
      t1.cold.millis / std::max(t1.warm.millis, 1e-3);
  const double pooled_speedup =
      t1.cold.millis / std::max(t4.cold.millis, 1e-3);
  const unsigned cores = std::thread::hardware_concurrency();
  bool all_identical = true;
  for (const ThreadRun& run : runs) all_identical &= run.identical;

  std::printf("warm repeated query speedup (1 thread):  %.2fx\n",
              warm_speedup);
  std::printf("page-cache-only warm speedup (1 thread): %.2fx\n",
              page_warm_speedup);
  std::printf("pooled speedup (4 threads, cold, %u core%s): %.2fx\n", cores,
              cores == 1 ? "" : "s", pooled_speedup);
  std::printf("bit-identical to serial:                 %s\n",
              all_identical ? "yes" : "NO");

  std::ofstream json("BENCH_scaling.json");
  if (!json.good()) {
    std::fprintf(stderr, "cannot open BENCH_scaling.json\n");
    return 1;
  }
  json << "{\n"
       << "  \"name\": \"scaling\",\n"
       << "  \"cpu_cores\": " << cores << ",\n"
       << "  \"workload\": {\"dataset\": \"KOB\", \"points\": " << points
       << ", \"w\": " << w
       << ", \"overlap_fraction\": 0.1, \"delete_fraction\": 0.1},\n"
       << "  \"threads\": [";
  for (size_t i = 0; i < runs.size(); ++i) {
    const ThreadRun& run = runs[i];
    if (i > 0) json << ",";
    json << "\n    {\"threads\": " << run.threads
         << ", \"cold_ms\": " << FormatMillis(run.cold.millis)
         << ", \"warm_ms\": " << FormatMillis(run.warm.millis)
         << ", \"repeat_ms\": " << FormatMicros(run.repeat.millis)
         << ", \"cold_pages_decoded\": " << run.cold.stats.pages_decoded
         << ", \"warm_pages_decoded\": " << run.warm.stats.pages_decoded
         << ", \"bit_identical\": " << (run.identical ? "true" : "false")
         << "}";
  }
  json << "\n  ],\n"
       << "  \"warm_speedup_1thread\": " << FormatRatio(warm_speedup)
       << ",\n"
       << "  \"page_cache_warm_speedup_1thread\": "
       << FormatRatio(page_warm_speedup) << ",\n"
       << "  \"pooled_speedup_4thread_cold\": " << FormatRatio(pooled_speedup)
       << ",\n"
       << "  \"all_bit_identical\": " << (all_identical ? "true" : "false")
       << "\n}\n";
  if (!json.good()) {
    std::fprintf(stderr, "short write to BENCH_scaling.json\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace tsviz::bench

int main() { return tsviz::bench::Run(); }
