// Sharded, mutex-striped LRU cache with single-flight coalescing — the
// serving layer's result cache.
//
// Keys and values are strings (the server keys by the canonical serialized
// request and stores the canonical serialized result, which is what makes
// cached responses byte-identical to direct computation), but nothing here
// knows about the wire protocol.
//
// Concurrency model:
//   * The key space is hashed across independent shards, each guarded by
//     its own mutex, so lookups for different keys rarely contend even with
//     a wide worker pool hammering the cache.
//   * get_or_compute() is single-flight: when N threads ask for the same
//     missing key concurrently, exactly one runs the compute function; the
//     others block on that in-flight computation and share its result
//     (outcome Coalesced). A compute that throws propagates the failure to
//     every waiter and caches nothing, so a transient error never poisons
//     the cache.
//   * The compute function runs outside every cache lock — only waiters for
//     the same key block on it, never the rest of the cache.
//
// Capacity 0 disables the cache entirely (get_or_compute degrades to a
// plain call, outcome Bypassed) — the MEMSTRESS_CACHE_ENTRIES=0 escape
// hatch. When a metrics prefix is supplied, hit/miss/coalesced/eviction
// events are mirrored into util/metrics counters ("<prefix>_hits", ...) in
// addition to the always-on internal stats.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace memstress {

namespace metrics {
class Counter;
}

class ShardedLruCache {
 public:
  /// How get_or_compute() satisfied a request.
  enum class Outcome {
    Hit,       ///< value was cached
    Computed,  ///< this caller ran the compute function
    Coalesced, ///< another caller was computing; we shared its result
    Bypassed,  ///< cache disabled (capacity 0)
  };

  struct Result {
    std::string value;
    Outcome outcome = Outcome::Bypassed;
  };

  using ComputeFn = std::function<std::string()>;

  /// `capacity` = total entry bound across all shards (0 = disabled).
  /// `shards` = stripe count (0 selects a default, clamped so every shard
  /// holds at least one entry). `metrics_prefix`, when non-empty, names the
  /// util/metrics counters the cache mirrors its stats into.
  explicit ShardedLruCache(std::size_t capacity, std::size_t shards = 0,
                           const std::string& metrics_prefix = "");

  ShardedLruCache(const ShardedLruCache&) = delete;
  ShardedLruCache& operator=(const ShardedLruCache&) = delete;

  /// Return the cached value for `key`, or run `compute` (single-flight)
  /// and cache its result. Exceptions from `compute` propagate to the
  /// caller and to every coalesced waiter; nothing is cached on failure.
  /// The cache's only entry point; an insert evicts the shard's
  /// least-recently-used entries when over budget.
  Result get_or_compute(const std::string& key, const ComputeFn& compute);

  /// Monotonic event totals since construction. Always recorded, whether or
  /// not util/metrics is enabled — tests and bench_server read these directly.
  struct Stats {
    long long hits = 0;
    long long misses = 0;     ///< get_or_compute entries that ran compute
    long long coalesced = 0;  ///< waiters served by another caller's compute
    long long evictions = 0;
  };
  Stats stats() const;

  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }
  bool cache_enabled() const { return capacity_ > 0; }

 private:
  struct Entry {
    std::string key;
    std::string value;
  };

  /// One in-flight computation; waiters block on `cv` until `done`.
  struct InFlight {
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
    std::string value;
    std::exception_ptr error;
  };

  struct Shard {
    mutable std::mutex mutex;
    std::list<Entry> lru;  ///< front = most recently used
    std::unordered_map<std::string, std::list<Entry>::iterator> map;
    std::unordered_map<std::string, std::shared_ptr<InFlight>> in_flight;
    std::size_t budget = 0;
    Stats stats;
  };

  Shard& shard_for(const std::string& key);
  void insert_locked(Shard& shard, const std::string& key, std::string value);
  void record(long long Stats::*field, metrics::Counter* counter,
              Shard& shard);

  std::size_t capacity_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;

  // Mirrored util/metrics counters (null when no prefix was given).
  metrics::Counter* hits_counter_ = nullptr;
  metrics::Counter* misses_counter_ = nullptr;
  metrics::Counter* coalesced_counter_ = nullptr;
  metrics::Counter* evictions_counter_ = nullptr;
};

}  // namespace memstress
