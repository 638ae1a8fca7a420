#include "util/lru.hpp"

#include "util/metrics.hpp"

namespace memstress {

namespace {

constexpr std::size_t kDefaultShards = 8;

}  // namespace

ShardedLruCache::ShardedLruCache(std::size_t capacity, std::size_t shards,
                                 const std::string& metrics_prefix)
    : capacity_(capacity) {
  if (capacity_ > 0) {
    std::size_t count = shards > 0 ? shards : kDefaultShards;
    if (count > capacity_) count = capacity_;  // every shard holds >= 1 entry
    shards_.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      auto shard = std::make_unique<Shard>();
      // Distribute the global budget exactly: the first capacity % count
      // shards take the remainder, so the shard budgets sum to capacity.
      shard->budget = capacity_ / count + (i < capacity_ % count ? 1 : 0);
      shards_.push_back(std::move(shard));
    }
  }
  if (!metrics_prefix.empty()) {
    hits_counter_ = &metrics::counter(metrics_prefix + "_hits");
    misses_counter_ = &metrics::counter(metrics_prefix + "_misses");
    coalesced_counter_ = &metrics::counter(metrics_prefix + "_coalesced");
    evictions_counter_ = &metrics::counter(metrics_prefix + "_evictions");
  }
}

ShardedLruCache::Shard& ShardedLruCache::shard_for(const std::string& key) {
  return *shards_[std::hash<std::string>{}(key) % shards_.size()];
}

void ShardedLruCache::record(long long Stats::*field,
                             metrics::Counter* counter, Shard& shard) {
  // Caller holds shard.mutex for the internal stat; the mirrored metrics
  // counter is atomic and needs no lock.
  shard.stats.*field += 1;
  if (counter) counter->add(1);
}

void ShardedLruCache::insert_locked(Shard& shard, const std::string& key,
                                    std::string value) {
  // The key is absent: its compute held the in-flight slot, so no other
  // caller could insert it meanwhile.
  shard.lru.push_front(Entry{key, std::move(value)});
  shard.map[key] = shard.lru.begin();
  while (shard.lru.size() > shard.budget) {
    shard.map.erase(shard.lru.back().key);
    shard.lru.pop_back();
    record(&Stats::evictions, evictions_counter_, shard);
  }
}

ShardedLruCache::Result ShardedLruCache::get_or_compute(
    const std::string& key, const ComputeFn& compute) {
  if (!cache_enabled()) return {compute(), Outcome::Bypassed};
  Shard& shard = shard_for(key);
  std::shared_ptr<InFlight> flight;
  bool owner = false;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto hit = shard.map.find(key);
    if (hit != shard.map.end()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, hit->second);
      record(&Stats::hits, hits_counter_, shard);
      return {hit->second->value, Outcome::Hit};
    }
    const auto pending = shard.in_flight.find(key);
    if (pending != shard.in_flight.end()) {
      flight = pending->second;
      record(&Stats::coalesced, coalesced_counter_, shard);
    } else {
      flight = std::make_shared<InFlight>();
      shard.in_flight[key] = flight;
      owner = true;
      record(&Stats::misses, misses_counter_, shard);
    }
  }

  if (!owner) {
    // Coalesced: another caller is computing this key. Block on its flight
    // and share the outcome, success or failure.
    std::unique_lock<std::mutex> lock(flight->mutex);
    flight->cv.wait(lock, [&] { return flight->done; });
    if (flight->error) std::rethrow_exception(flight->error);
    return {flight->value, Outcome::Coalesced};
  }

  // Owner: run the compute with no cache lock held, then publish. The
  // in-flight entry is erased and the value inserted under one shard lock,
  // so a concurrent request always finds either the flight or the entry.
  std::string value;
  try {
    value = compute();
  } catch (...) {
    {
      std::lock_guard<std::mutex> lock(shard.mutex);
      shard.in_flight.erase(key);
    }
    {
      std::lock_guard<std::mutex> lock(flight->mutex);
      flight->error = std::current_exception();
      flight->done = true;
    }
    flight->cv.notify_all();
    throw;
  }
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    insert_locked(shard, key, value);
    shard.in_flight.erase(key);
  }
  {
    std::lock_guard<std::mutex> lock(flight->mutex);
    flight->value = value;
    flight->done = true;
  }
  flight->cv.notify_all();
  return {std::move(value), Outcome::Computed};
}

ShardedLruCache::Stats ShardedLruCache::stats() const {
  Stats total;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    total.hits += shard->stats.hits;
    total.misses += shard->stats.misses;
    total.coalesced += shard->stats.coalesced;
    total.evictions += shard->stats.evictions;
  }
  return total;
}

std::size_t ShardedLruCache::size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    total += shard->lru.size();
  }
  return total;
}

}  // namespace memstress
