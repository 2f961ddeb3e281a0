#ifndef TSVIZ_PERFBENCH_REPORT_H_
#define TSVIZ_PERFBENCH_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace perfbench {

// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

// The engine's process-wide counters and histograms the per-layer metrics
// are deltas of, read before and after the timed phases.
class RegistrySnapshot {
 public:
  static RegistrySnapshot Take();

  // after - before for a counter (and for EnvFsyncCount as "fsync").
  uint64_t Delta(const RegistrySnapshot& before, const std::string& name) const;
  // Quantile of the samples a histogram received between the snapshots,
  // interpolated inside log buckets the way obs::Histogram does.
  double HistQuantile(const RegistrySnapshot& before, const std::string& name,
                      double q) const;
  double HistSum(const RegistrySnapshot& before, const std::string& name) const;

 private:
  struct Hist {
    std::vector<uint64_t> buckets;
    double sum = 0;
    double max = 0;
  };
  std::map<std::string, uint64_t> counters_;
  std::map<std::string, Hist> hists_;
};

// One named metric with its unit, in report order.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// The result line: {"correct", "attempted", "failed", "metrics"}.
std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics);

// Minimal JSON helpers for the report file.
std::string JsonString(const std::string& s);
std::string JsonNumber(double v);

// VmHWM of this process in MiB, and a reset of it to the current RSS (so
// the peak covers only what follows; a no-op where the kernel refuses).
double PeakRssMb();
void ResetPeakRss();

// Bytes of every regular file under `dir`.
uint64_t DirBytes(const std::string& dir);

}  // namespace perfbench

#endif  // TSVIZ_PERFBENCH_REPORT_H_
