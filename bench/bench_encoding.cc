// Ablation: codec throughput and compression ratios. The decode numbers are
// what make chunk loading expensive and the merge-free design worthwhile
// (Section 2.3): every chunk M4-UDF touches pays this CPU cost.

#include <benchmark/benchmark.h>

#include <vector>

#include "encoding/gorilla.h"
#include "encoding/page.h"
#include "encoding/plain.h"
#include "encoding/ts2diff.h"
#include "workload/generator.h"

namespace tsviz {
namespace {

std::vector<Point> BenchPoints(size_t n) {
  DatasetSpec spec;
  spec.kind = DatasetKind::kMf03;
  spec.num_points = n;
  return GenerateDataset(spec);
}

void BM_Ts2DiffEncode(benchmark::State& state) {
  std::vector<Point> points = BenchPoints(100000);
  size_t encoded_size = 0;
  for (auto _ : state) {
    std::string buf;
    benchmark::DoNotOptimize(EncodeTs2Diff(points.data(), points.size(), &buf));
    encoded_size = buf.size();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(points.size()));
  state.counters["bytes_per_point"] =
      static_cast<double>(encoded_size) / static_cast<double>(points.size());
}
BENCHMARK(BM_Ts2DiffEncode);

void BM_Ts2DiffDecode(benchmark::State& state) {
  std::vector<Point> points = BenchPoints(100000);
  std::string buf;
  benchmark::DoNotOptimize(EncodeTs2Diff(points.data(), points.size(), &buf));
  for (auto _ : state) {
    std::string_view view = buf;
    std::vector<Point> out(points.size());
    benchmark::DoNotOptimize(DecodeTs2Diff(&view, out.size(), out.data()));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(points.size()));
}
BENCHMARK(BM_Ts2DiffDecode);

void BM_GorillaEncode(benchmark::State& state) {
  std::vector<Point> points = BenchPoints(100000);
  size_t encoded_size = 0;
  for (auto _ : state) {
    std::string buf;
    benchmark::DoNotOptimize(EncodeGorilla(points.data(), points.size(), &buf));
    encoded_size = buf.size();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(points.size()));
  state.counters["bytes_per_point"] =
      static_cast<double>(encoded_size) / static_cast<double>(points.size());
}
BENCHMARK(BM_GorillaEncode);

void BM_GorillaDecode(benchmark::State& state) {
  std::vector<Point> points = BenchPoints(100000);
  std::string buf;
  benchmark::DoNotOptimize(EncodeGorilla(points.data(), points.size(), &buf));
  for (auto _ : state) {
    std::vector<Point> out(points.size());
    benchmark::DoNotOptimize(DecodeGorilla(buf, out.size(), out.data()));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(points.size()));
}
BENCHMARK(BM_GorillaDecode);

void BM_PlainDecode(benchmark::State& state) {
  std::vector<Point> points = BenchPoints(100000);
  std::string buf;
  benchmark::DoNotOptimize(EncodePlainValues(points.data(), points.size(), &buf));
  for (auto _ : state) {
    std::vector<Point> out(points.size());
    benchmark::DoNotOptimize(DecodePlainValues(buf, out.size(), out.data()));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(points.size()));
}
BENCHMARK(BM_PlainDecode);

void BM_PageRoundTrip(benchmark::State& state) {
  std::vector<Point> points = BenchPoints(200);
  for (auto _ : state) {
    std::string blob;
    PageInfo info;
    benchmark::DoNotOptimize(EncodePage(points.data(), points.size(),
                                        TsCodec::kTs2Diff,
                                        ValueCodec::kGorilla, &blob, &info));
    std::vector<Point> out;
    benchmark::DoNotOptimize(DecodePage(blob, &out));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(points.size()));
}
BENCHMARK(BM_PageRoundTrip);

}  // namespace
}  // namespace tsviz

BENCHMARK_MAIN();
