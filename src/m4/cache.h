#ifndef TSVIZ_M4_CACHE_H_
#define TSVIZ_M4_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/status.h"
#include "m4/m4_lsm.h"
#include "m4/m4_types.h"
#include "m4/span.h"
#include "storage/store.h"

namespace tsviz {

// LRU cache of M4 results, keyed by the query geometry and the store's id
// and state version — interactive dashboards repeat the same zoom levels, and a
// pan/zoom session revisits its history constantly. Any flush, delete or
// compaction bumps the store's state version and implicitly invalidates
// every cached result for it. Thread-safe.
//
// Besides its immutable result, an entry has one slot for the reply text a
// caller rendered from it (the SQL layer keeps the CSV there), so a repeated
// statement is answered without rendering again. The text's first line is
// the column header it was rendered for; a statement with another header
// renders its own text and replaces it.
class M4QueryCache {
 public:
  struct Key {
    uint64_t store_id;  // StoreView::store_id(), never reused
    uint64_t state_version;
    Timestamp tqs;
    Timestamp tqe;
    int64_t w;
    LocateStrategy strategy;

    friend bool operator==(const Key&, const Key&) = default;
  };

  // What GetOrCompute answers. `result` is shared with the entry, so a hit
  // copies nothing. `text` is the entry's rendered reply: set only on a hit
  // whose entry has been rendered, never on a miss.
  struct Lookup {
    Key key{};
    std::shared_ptr<const M4Result> result;
    std::shared_ptr<const std::string> text;
    bool hit = false;
  };

  explicit M4QueryCache(size_t capacity) : capacity_(capacity) {}

  M4QueryCache(const M4QueryCache&) = delete;
  M4QueryCache& operator=(const M4QueryCache&) = delete;

  // Returns the cached result or computes it (via the pooled parallel
  // operator when `parallelism` > 1) and caches it. Takes a snapshot view
  // (a TsStore converts implicitly) and keys on its store id + state
  // version. `stats` (optional) is only charged on a miss — a hit costs no
  // I/O; the probe itself shows up as a `cache_probe` span on the caller's
  // trace.
  Result<Lookup> GetOrCompute(StoreView view, const M4Query& query,
                              QueryStats* stats,
                              const M4LsmOptions& options = {},
                              int parallelism = 1);

  // Keeps `text`, rendered from `lookup.result`, in the slot of the entry
  // that holds that result, replacing what the slot held. A no-op when the
  // entry has been evicted meanwhile.
  void KeepText(const Lookup& lookup, std::shared_ptr<const std::string> text);

  // Drops every entry of one store (a dropped series: its id is never
  // reused, so those entries could never hit again).
  void EraseStore(uint64_t store_id);

  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  size_t size() const;

  // Runtime knob (SQL `SET result_cache_capacity = n`); shrinking evicts
  // immediately. A capacity of 0 disables result caching.
  void set_capacity(size_t capacity);
  size_t capacity() const;

  void Clear();

 private:
  struct KeyHash {
    size_t operator()(const Key& key) const;
  };

  // A result computed while corrupt chunks were quarantined is still
  // cacheable (the state version pins the data it covered), but every hit
  // must re-report degraded=true — the flag travels with the entry.
  struct Entry {
    Key key;
    std::shared_ptr<const M4Result> result;
    bool degraded = false;
    std::shared_ptr<const std::string> text;  // filled on the first hit
  };

  // Drops least-recently-used entries down to the capacity. Needs mutex_.
  void EvictToCapacity();

  size_t capacity_;
  mutable std::mutex mutex_;
  std::list<Entry> lru_;  // front = most recent
  std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> index_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
};

}  // namespace tsviz

#endif  // TSVIZ_M4_CACHE_H_
