#include "util/lru.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "util/error.hpp"
#include "util/metrics.hpp"

namespace memstress {
namespace {

using Outcome = ShardedLruCache::Outcome;

/// Look `key` up through the cache's one entry point, computing "v-<key>"
/// on a miss, and return how the lookup was served.
Outcome touch(ShardedLruCache& cache, const std::string& key) {
  const auto result =
      cache.get_or_compute(key, [&] { return "v-" + key; });
  EXPECT_EQ(result.value, "v-" + key);
  return result.outcome;
}

TEST(LruCache, EvictsLeastRecentlyUsedInOrder) {
  // One shard makes the global LRU order the shard order, so the eviction
  // sequence is fully deterministic. A Hit proves a key is still cached; a
  // Computed on a key seen before proves it was evicted.
  ShardedLruCache cache(3, /*shards=*/1);
  EXPECT_TRUE(cache.cache_enabled());
  EXPECT_EQ(touch(cache, "a"), Outcome::Computed);
  EXPECT_EQ(touch(cache, "b"), Outcome::Computed);
  EXPECT_EQ(touch(cache, "c"), Outcome::Computed);
  // Touch "a": "b" becomes the oldest.
  EXPECT_EQ(touch(cache, "a"), Outcome::Hit);
  EXPECT_EQ(touch(cache, "d"), Outcome::Computed);  // evicts "b"
  EXPECT_EQ(cache.stats().evictions, 1);
  // Order is now d, a, c (newest first): "b" misses and evicts "c".
  EXPECT_EQ(touch(cache, "b"), Outcome::Computed);
  EXPECT_EQ(touch(cache, "a"), Outcome::Hit);
  EXPECT_EQ(touch(cache, "d"), Outcome::Hit);
  // Order is d, a, b: "c" misses and evicts "b".
  EXPECT_EQ(touch(cache, "c"), Outcome::Computed);
  EXPECT_EQ(touch(cache, "a"), Outcome::Hit);
  EXPECT_EQ(touch(cache, "d"), Outcome::Hit);
  EXPECT_EQ(cache.stats().evictions, 3);
  EXPECT_EQ(cache.size(), 3u);
}

TEST(LruCache, CapacityZeroBypassesEverything) {
  ShardedLruCache cache(0);
  EXPECT_FALSE(cache.cache_enabled());
  int computes = 0;
  const auto result = cache.get_or_compute("a", [&] {
    ++computes;
    return std::string("fresh");
  });
  EXPECT_EQ(result.value, "fresh");
  EXPECT_EQ(result.outcome, Outcome::Bypassed);
  // Bypassed calls never memoize: every call computes.
  cache.get_or_compute("a", [&] {
    ++computes;
    return std::string("fresh");
  });
  EXPECT_EQ(computes, 2);
  EXPECT_EQ(cache.size(), 0u);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 0);
  EXPECT_EQ(stats.misses, 0);
}

TEST(LruCache, ShardBudgetsSumToCapacity) {
  // 10 entries over the default shard count: the budgets must sum exactly
  // to the capacity, so filling with distinct keys never exceeds it.
  ShardedLruCache cache(10);
  EXPECT_EQ(cache.capacity(), 10u);
  for (int i = 0; i < 200; ++i)
    EXPECT_EQ(touch(cache, "key-" + std::to_string(i)), Outcome::Computed);
  EXPECT_LE(cache.size(), 10u);
  // Every computed entry is either still cached or was evicted.
  EXPECT_EQ(cache.stats().evictions,
            200 - static_cast<long long>(cache.size()));
}

TEST(LruCache, ShardCountClampedToCapacity) {
  // 16 shards requested for 2 entries. Unclamped, 14 shards would get a
  // budget of 0 and evict each insert at once; clamped to 2 shards, each
  // holds one entry, so a key looked up right after its compute hits.
  ShardedLruCache cache(2, /*shards=*/16);
  for (int i = 0; i < 20; ++i) {
    const std::string key = "key-" + std::to_string(i);
    EXPECT_EQ(touch(cache, key), Outcome::Computed) << key;
    EXPECT_EQ(touch(cache, key), Outcome::Hit) << key;
  }
}

TEST(LruCache, GetOrComputeCachesAndCountsOutcomes) {
  ShardedLruCache cache(8);
  int computes = 0;
  const auto first = cache.get_or_compute("k", [&] {
    ++computes;
    return std::string("value");
  });
  EXPECT_EQ(first.value, "value");
  EXPECT_EQ(first.outcome, Outcome::Computed);
  const auto second = cache.get_or_compute("k", [&] {
    ++computes;
    return std::string("value");
  });
  EXPECT_EQ(second.value, "value");
  EXPECT_EQ(second.outcome, Outcome::Hit);
  EXPECT_EQ(computes, 1);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.coalesced, 0);
}

TEST(LruCache, MirrorsIntoMetricsCountersWhenPrefixed) {
  metrics::set_enabled(true);
  metrics::reset();
  ShardedLruCache cache(4, 1, "test.lru");
  cache.get_or_compute("k", [] { return std::string("v"); });
  cache.get_or_compute("k", [] { return std::string("v"); });
  EXPECT_EQ(metrics::counter("test.lru_misses").value(), 1);
  EXPECT_EQ(metrics::counter("test.lru_hits").value(), 1);
  metrics::reset();
  metrics::set_enabled(false);
}

TEST(LruSingleFlight, ConcurrentIdenticalRequestsComputeOnce) {
  ShardedLruCache cache(8);
  constexpr int kThreads = 8;
  std::atomic<int> computes{0};
  std::atomic<int> started{0};
  std::vector<std::thread> threads;
  std::vector<std::string> values(kThreads);
  std::vector<Outcome> outcomes(kThreads, Outcome::Bypassed);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      started.fetch_add(1);
      // Crude rendezvous so the requests overlap rather than serialize.
      while (started.load() < kThreads) std::this_thread::yield();
      const auto result = cache.get_or_compute("hot-key", [&] {
        computes.fetch_add(1);
        // A slow compute keeps the flight open long enough for the other
        // threads to pile onto it.
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        return std::string("expensive-result");
      });
      values[static_cast<std::size_t>(t)] = result.value;
      outcomes[static_cast<std::size_t>(t)] = result.outcome;
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(computes.load(), 1) << "single-flight must compute exactly once";
  int computed = 0;
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(values[static_cast<std::size_t>(t)], "expensive-result");
    if (outcomes[static_cast<std::size_t>(t)] == Outcome::Computed) ++computed;
  }
  EXPECT_EQ(computed, 1);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits + stats.coalesced, kThreads - 1);
}

TEST(LruSingleFlight, ComputeFailurePropagatesAndPoisonsNothing) {
  ShardedLruCache cache(8);
  EXPECT_THROW(cache.get_or_compute(
                   "k", [&]() -> std::string { throw Error("transient"); }),
               Error);
  // The failure was not cached: the next call computes and succeeds.
  const auto result =
      cache.get_or_compute("k", [] { return std::string("recovered"); });
  EXPECT_EQ(result.value, "recovered");
  EXPECT_EQ(result.outcome, Outcome::Computed);
  const auto again =
      cache.get_or_compute("k", [] { return std::string("unused"); });
  EXPECT_EQ(again.value, "recovered");
  EXPECT_EQ(again.outcome, Outcome::Hit);
}

TEST(LruSingleFlight, FailurePropagatesToEveryWaiter) {
  ShardedLruCache cache(8);
  constexpr int kThreads = 4;
  std::atomic<int> computes{0};
  std::atomic<int> failures{0};
  std::atomic<int> started{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      started.fetch_add(1);
      while (started.load() < kThreads) std::this_thread::yield();
      try {
        cache.get_or_compute("doomed", [&]() -> std::string {
          computes.fetch_add(1);
          std::this_thread::sleep_for(std::chrono::milliseconds(30));
          throw Error("injected failure");
        });
      } catch (const Error&) {
        failures.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  // Either all threads coalesced onto one failing flight, or late arrivals
  // started fresh flights after the first erase — both are correct; what
  // matters is every caller saw the error and nothing got cached.
  EXPECT_GE(computes.load(), 1);
  EXPECT_EQ(failures.load(), kThreads);
  EXPECT_EQ(touch(cache, "doomed"), Outcome::Computed);
}

TEST(LruParallel, HammerSmallCacheFromManyThreads) {
  // Tiny capacity + many threads + overlapping key set: constant hits,
  // misses, coalesces and evictions all at once. Run under TSan via
  // check_parallel; correctness here is "right value for every key".
  ShardedLruCache cache(4, /*shards=*/2);
  constexpr int kThreads = 8;
  constexpr int kIterations = 500;
  std::atomic<long> wrong_values{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIterations; ++i) {
        const int k = (t + i) % 12;
        const std::string key = "key-" + std::to_string(k);
        const std::string want = "value-" + std::to_string(k);
        const auto result =
            cache.get_or_compute(key, [&] { return want; });
        if (result.value != want) wrong_values.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(wrong_values.load(), 0);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses + stats.coalesced,
            static_cast<long long>(kThreads) * kIterations);
  EXPECT_LE(cache.size(), 4u);
}

}  // namespace
}  // namespace memstress
