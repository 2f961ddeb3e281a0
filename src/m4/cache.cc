#include "m4/cache.h"

#include <algorithm>

#include "m4/parallel.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace tsviz {

namespace {

obs::Counter& CacheHits() {
  static obs::Counter& c = obs::GetCounter(
      "m4_result_cache_hits_total", "M4 result cache hits");
  return c;
}

obs::Counter& CacheMisses() {
  static obs::Counter& c = obs::GetCounter(
      "m4_result_cache_misses_total", "M4 result cache misses");
  return c;
}

}  // namespace

size_t M4QueryCache::KeyHash::operator()(const Key& key) const {
  uint64_t h = key.store_id;
  auto mix = [&h](uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  };
  mix(key.state_version);
  mix(static_cast<uint64_t>(key.tqs));
  mix(static_cast<uint64_t>(key.tqe));
  mix(static_cast<uint64_t>(key.w));
  mix(static_cast<uint64_t>(key.strategy));
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 27;
  return static_cast<size_t>(h);
}

Result<M4QueryCache::Lookup> M4QueryCache::GetOrCompute(
    StoreView view, const M4Query& query, QueryStats* stats,
    const M4LsmOptions& options, int parallelism) {
  TSVIZ_RETURN_IF_ERROR(query.Validate());
  Lookup lookup;
  lookup.key = Key{view.store_id(), view.state_version(), query.tqs,
                   query.tqe, query.w, options.locate_strategy};
  {
    obs::TraceSpan probe(stats != nullptr ? stats->trace.get() : nullptr,
                         "cache_probe");
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = index_.find(lookup.key);
    if (it != index_.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      CacheHits().Inc();
      lru_.splice(lru_.begin(), lru_, it->second);  // bump to front
      if (stats != nullptr && it->second->degraded) stats->degraded = true;
      lookup.result = it->second->result;
      lookup.text = it->second->text;
      lookup.hit = true;
      return lookup;
    }
  }

  // Compute outside the lock; concurrent misses on the same key may race,
  // which only costs a duplicate computation, never a wrong result. The
  // computation charges a local QueryStats so this entry's own degraded
  // flag is known even when the caller's stats already carry one.
  QueryStats local;
  if (stats != nullptr) local.trace = stats->trace;
  TSVIZ_ASSIGN_OR_RETURN(
      M4Result result,
      RunM4LsmParallel(std::move(view), query, std::max(1, parallelism),
                       &local, options));
  local.trace.reset();
  if (stats != nullptr) *stats += local;
  lookup.result = std::make_shared<const M4Result>(std::move(result));
  std::lock_guard<std::mutex> lock(mutex_);
  misses_.fetch_add(1, std::memory_order_relaxed);
  CacheMisses().Inc();
  if (capacity_ > 0 && !index_.contains(lookup.key)) {
    lru_.emplace_front(
        Entry{lookup.key, lookup.result, local.degraded, nullptr});
    index_[lookup.key] = lru_.begin();
    EvictToCapacity();
  }
  return lookup;
}

void M4QueryCache::KeepText(const Lookup& lookup,
                            std::shared_ptr<const std::string> text) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = index_.find(lookup.key);
  if (it != index_.end() && it->second->result == lookup.result) {
    it->second->text = std::move(text);
  }
}

void M4QueryCache::EraseStore(uint64_t store_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->key.store_id == store_id) {
      index_.erase(it->key);
      it = lru_.erase(it);
    } else {
      ++it;
    }
  }
}

void M4QueryCache::EvictToCapacity() {
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
  }
}

size_t M4QueryCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lru_.size();
}

void M4QueryCache::set_capacity(size_t capacity) {
  std::lock_guard<std::mutex> lock(mutex_);
  capacity_ = capacity;
  EvictToCapacity();
}

size_t M4QueryCache::capacity() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return capacity_;
}

void M4QueryCache::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  lru_.clear();
  index_.clear();
}

}  // namespace tsviz
