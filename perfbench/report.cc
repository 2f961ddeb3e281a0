#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/env.h"

namespace perfbench {

namespace {

const char* const kCounters[] = {
    "server_queries_total",
    "net_epoll_wakeups_total",
    "net_requests_shed_total",
    "batch_insert_coalesced_total",
    "m4_result_cache_hits_total",
    "m4_result_cache_misses_total",
    "page_cache_hits_total",
    "page_cache_misses_total",
    "page_cache_evictions_total",
    "wal_physical_writes_total",
    "wal_bytes_total",
    "store_write_lock_acquisitions_total",
    "storage_flushes_total",
    "storage_compaction_bytes_rewritten_total",
    "bg_jobs_completed_total",
    "repl_log_bytes_total",
    "repl_pulls_total",
    "repl_records_shipped_total",
};

const char* const kHistograms[] = {
    "net_queue_wait_millis", "catalog_lock_wait_millis",
    "storage_flush_millis",  "storage_compaction_millis",
    "bg_flush_millis",       "bg_compact_millis",
    "bg_ttl_millis",         "repl_apply_millis",
};

}  // namespace

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(values.size() - 1, lo + 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - lo);
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

RegistrySnapshot RegistrySnapshot::Take() {
  RegistrySnapshot snap;
  for (const char* name : kCounters) {
    snap.counters_[name] = tsviz::obs::GetCounter(name).value();
  }
  snap.counters_["fsync"] = tsviz::EnvFsyncCount();
  for (const char* name : kHistograms) {
    const tsviz::obs::Histogram& h = tsviz::obs::GetHistogram(name);
    Hist hist;
    for (size_t i = 0; i < tsviz::obs::Histogram::kNumBuckets; ++i) {
      hist.buckets.push_back(h.BucketCount(i));
    }
    hist.sum = h.sum();
    hist.max = h.max();
    snap.hists_[name] = std::move(hist);
  }
  return snap;
}

uint64_t RegistrySnapshot::Delta(const RegistrySnapshot& before,
                                 const std::string& name) const {
  return counters_.at(name) - before.counters_.at(name);
}

double RegistrySnapshot::HistQuantile(const RegistrySnapshot& before,
                                      const std::string& name,
                                      double q) const {
  const Hist& a = hists_.at(name);
  const Hist& b = before.hists_.at(name);
  std::vector<uint64_t> delta(a.buckets.size());
  uint64_t total = 0;
  for (size_t i = 0; i < delta.size(); ++i) {
    delta[i] = a.buckets[i] - b.buckets[i];
    total += delta[i];
  }
  if (total == 0) return 0.0;
  uint64_t rank = static_cast<uint64_t>(std::ceil(q * total));
  if (rank == 0) rank = 1;
  uint64_t seen = 0;
  for (size_t i = 0; i < delta.size(); ++i) {
    if (delta[i] == 0) continue;
    if (seen + delta[i] >= rank) {
      const double lo = i == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(i) - 1);
      double hi = i + 1 >= delta.size() ? a.max
                                        : std::ldexp(1.0, static_cast<int>(i));
      hi = std::max(hi, lo);
      const double frac =
          static_cast<double>(rank - seen) / static_cast<double>(delta[i]);
      return std::min(lo + (hi - lo) * frac, a.max);
    }
    seen += delta[i];
  }
  return a.max;
}

double RegistrySnapshot::HistSum(const RegistrySnapshot& before,
                                 const std::string& name) const {
  return hists_.at(name).sum - before.hists_.at(name).sum;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " +
           JsonNumber(metrics[i].value) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}}";
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

void ResetPeakRss() { std::ofstream("/proc/self/clear_refs") << "5"; }

uint64_t DirBytes(const std::string& dir) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    std::error_code size_ec;
    if (it->is_regular_file(size_ec)) {
      const uint64_t size = it->file_size(size_ec);
      if (!size_ec) bytes += size;
    }
  }
  return bytes;
}

}  // namespace perfbench
