#include "util/metrics.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "util/parallel.hpp"

namespace memstress::metrics {
namespace {

/// Every test leaves the process with metrics disabled and zeroed so the
/// other suites in this binary (and their ordering) see a clean slate.
class MetricsGuard {
 public:
  MetricsGuard() {
    set_enabled(true);
    reset();
  }
  ~MetricsGuard() {
    reset();
    set_enabled(false);
  }
};

TEST(MetricsCounters, DisabledAddIsANoop) {
  MetricsGuard guard;
  set_enabled(false);
  Counter& c = counter("test.disabled_noop");
  c.add(5);
  EXPECT_EQ(c.value(), 0);
}

TEST(MetricsCounters, EnabledAddAccumulates) {
  MetricsGuard guard;
  Counter& c = counter("test.enabled_adds");
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42);
}

TEST(MetricsCounters, SameNameReturnsSameHandle) {
  MetricsGuard guard;
  EXPECT_EQ(&counter("test.same_handle"), &counter("test.same_handle"));
  EXPECT_NE(&counter("test.same_handle"), &counter("test.other_handle"));
}

TEST(MetricsCounters, HandleSurvivesReset) {
  MetricsGuard guard;
  Counter& c = counter("test.reset_survivor");
  c.add(7);
  reset();
  EXPECT_EQ(c.value(), 0);
  c.add(3);
  EXPECT_EQ(c.value(), 3);
  EXPECT_EQ(&c, &counter("test.reset_survivor"));
}

TEST(MetricsThreaded, CountsAreExactUnderContention) {
  MetricsGuard guard;
  Counter& c = counter("test.threaded_exact");
  parallel_for(10000, [&](std::size_t) { c.add(1); }, 8);
  EXPECT_EQ(c.value(), 10000);
}

TEST(MetricsThreaded, CancelledJobsCountedAtEveryThreadCount) {
  MetricsGuard guard;
  Counter& cancelled = counter("parallel.cancelled_jobs");
  for (const int threads : {1, 4}) {
    reset();
    CancelToken token;
    EXPECT_THROW(parallel_for(64,
                              [&](std::size_t i) {
                                if (i == 3) token.request_cancel();
                                // Later tasks hold their thread until the
                                // trip, so a claim always sees the token
                                // before the range runs out.
                                while (i > 3 && !token.cancelled())
                                  std::this_thread::yield();
                              },
                              threads, &token),
                 CancelledError);
    EXPECT_EQ(cancelled.value(), 1) << threads << " threads";
  }
}

TEST(MetricsThreaded, TotalsInvariantAcrossThreadCounts) {
  MetricsGuard guard;
  Counter& c = counter("test.threaded_invariant");
  std::vector<long long> totals;
  for (const int threads : {1, 2, 8}) {
    reset();
    parallel_for(513, [&](std::size_t i) { c.add(static_cast<long long>(i)); },
                 threads);
    totals.push_back(c.value());
  }
  EXPECT_EQ(totals[0], totals[1]);
  EXPECT_EQ(totals[0], totals[2]);
  EXPECT_EQ(totals[0], 512 * 513 / 2);
}

/// Start `threads` threads that each add 1..kAddsPerThread to `c` once the
/// last of them is up, so every shard is written at the same time.
constexpr long long kAddsPerThread = 2000;
void add_from_threads(Counter& c, std::size_t threads) {
  std::atomic<std::size_t> ready{0};
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t)
    pool.emplace_back([&] {
      ready.fetch_add(1);
      while (ready.load() < threads) std::this_thread::yield();
      for (long long k = 1; k <= kAddsPerThread; ++k) c.add(k);
    });
  for (std::thread& thread : pool) thread.join();
}

long long expected_total(std::size_t threads) {
  return static_cast<long long>(threads) * kAddsPerThread *
         (kAddsPerThread + 1) / 2;
}

TEST(MetricsThreaded, TwiceAsManyThreadsAsShardsStayExactAcrossReset) {
  MetricsGuard guard;
  Counter& c = counter("test.threaded_shards");
  // 2 * kShards threads that first add in a row share every shard in
  // pairs: the total must still be exact, and a shard reset() missed would
  // leave a positive value behind.
  constexpr std::size_t kThreads = 2 * Counter::kShards;
  add_from_threads(c, kThreads);
  ASSERT_EQ(c.value(), expected_total(kThreads));
  reset();
  EXPECT_EQ(c.value(), 0);
  // The handle cached before the reset still counts, on every shard.
  add_from_threads(c, kThreads);
  EXPECT_EQ(c.value(), expected_total(kThreads));
  EXPECT_EQ(&c, &counter("test.threaded_shards"));
}

TEST(MetricsHistogram, TracksCountSumMinMax) {
  MetricsGuard guard;
  Histogram& h = histogram("test.histogram_stats");
  for (const double v : {3.0, 1.0, 2.0}) h.record(v);
  const Histogram::Snapshot stats = h.snapshot();
  EXPECT_EQ(stats.count, 3);
  EXPECT_DOUBLE_EQ(stats.sum, 6.0);
  EXPECT_DOUBLE_EQ(stats.min, 1.0);
  EXPECT_DOUBLE_EQ(stats.max, 3.0);
  EXPECT_DOUBLE_EQ(stats.mean(), 2.0);
}

TEST(MetricsHistogram, DisabledRecordIsANoop) {
  MetricsGuard guard;
  set_enabled(false);
  Histogram& h = histogram("test.histogram_disabled");
  h.record(1.0);
  EXPECT_EQ(h.snapshot().count, 0);
}

TEST(MetricsReport, CollectSkipsZeroValues) {
  MetricsGuard guard;
  counter("test.report_zero");
  counter("test.report_nonzero").add(2);
  const RunReport report = collect();
  bool saw_nonzero = false;
  for (const auto& c : report.counters) {
    EXPECT_NE(c.name, "test.report_zero");
    if (c.name == "test.report_nonzero") {
      saw_nonzero = true;
      EXPECT_EQ(c.value, 2);
    }
  }
  EXPECT_TRUE(saw_nonzero);
}

TEST(MetricsReport, JsonCarriesCountersAndHistograms) {
  MetricsGuard guard;
  counter("test.json_counter").add(11);
  histogram("test.json_histogram").record(0.5);
  const std::string json = collect().to_json();
  EXPECT_NE(json.find("\"test.json_counter\":11"), std::string::npos);
  EXPECT_NE(json.find("\"test.json_histogram\""), std::string::npos);
  EXPECT_NE(json.find("\"counters\":{"), std::string::npos);
  EXPECT_NE(json.find("\"spans\":["), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(MetricsReport, TableRendersCounterRows) {
  MetricsGuard guard;
  counter("test.table_counter").add(4);
  const std::string table = collect().to_table();
  EXPECT_NE(table.find("RunReport"), std::string::npos);
  EXPECT_NE(table.find("test.table_counter"), std::string::npos);
  EXPECT_NE(table.find("4"), std::string::npos);
}

TEST(MetricsReport, EmptyReportExplainsTheToggle) {
  MetricsGuard guard;
  reset();
  const std::string table = collect().to_table();
  EXPECT_NE(table.find("MEMSTRESS_METRICS"), std::string::npos);
}

TEST(MetricsHistogram, QuantilesFromLogBucketsBracketTheTruth) {
  MetricsGuard guard;
  Histogram& h = histogram("test.quantiles");
  // 1000 samples 1ms..1000ms: true p50 = 500ms, p99 = 990ms. Log buckets
  // give ~15% relative resolution — assert the estimates land in a window,
  // and the clamp pins the exact extremes.
  for (int i = 1; i <= 1000; ++i) h.record(i * 1e-3);
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 1000);
  EXPECT_NEAR(s.quantile(0.5), 0.5, 0.15);
  EXPECT_NEAR(s.quantile(0.99), 0.99, 0.25);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), s.min);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), s.max);
  EXPECT_GE(s.quantile(0.999), s.quantile(0.99));
  EXPECT_GE(s.quantile(0.99), s.quantile(0.5));
}

TEST(MetricsHistogram, SingleSampleAnswersExactlyAtEveryQuantile) {
  MetricsGuard guard;
  Histogram& h = histogram("test.quantile_single");
  h.record(0.125);
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 0.125);   // clamped to [min, max]
  EXPECT_DOUBLE_EQ(s.quantile(0.999), 0.125);
  EXPECT_DOUBLE_EQ(Histogram::Snapshot{}.quantile(0.5), 0.0);  // empty
}

TEST(MetricsReport, JsonHistogramsCarryQuantileFields) {
  MetricsGuard guard;
  histogram("test.json_quantiles").record(0.5);
  const std::string json = collect().to_json();
  EXPECT_NE(json.find("\"p50\":"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
  EXPECT_NE(json.find("\"p999\":"), std::string::npos);
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

TEST(MetricsStream, EmitsSelfContainedNdjsonLines) {
  MetricsGuard guard;
  const std::string path =
      ::testing::TempDir() + "metrics_stream_test.ndjson";
  std::remove(path.c_str());
  counter("test.stream_counter").add(3);
  // A 60-s interval never ticks here: each streamer writes only its final
  // snapshot, numbered from 1.
  { SnapshotStreamer labelled(path, 60000, "phase-a"); }
  { SnapshotStreamer unlabelled(path, 60000); }
  // No target: nothing is opened or written, and recording stays as it was.
  set_enabled(false);
  { SnapshotStreamer none("", 60000, "phase-b"); }
  EXPECT_FALSE(enabled());
  set_enabled(true);

  const std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("{\"stream\":\"metrics\",\"seq\":1,"),
            std::string::npos);
  EXPECT_NE(lines[0].find("\"label\":\"phase-a\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"test.stream_counter\":3"), std::string::npos);
  EXPECT_NE(lines[1].find("{\"stream\":\"metrics\",\"seq\":1,"),
            std::string::npos);
  EXPECT_EQ(lines[1].find("\"label\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"test.stream_counter\":3"), std::string::npos);
  std::remove(path.c_str());
}

TEST(MetricsStream, StreamerEmitsPeriodicAndFinalSnapshots) {
  MetricsGuard guard;
  const std::string path =
      ::testing::TempDir() + "snapshot_streamer_test.ndjson";
  std::remove(path.c_str());
  counter("test.streamer_counter").add(1);
  {
    SnapshotStreamer streamer(path, 20, "soak");
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
  }  // destructor emits the final snapshot

  const std::vector<std::string> lines = read_lines(path);
  for (const std::string& line : lines) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"label\":\"soak\""), std::string::npos);
  }
  EXPECT_GE(lines.size(), 2u);  // at least one periodic tick plus the final one
  std::remove(path.c_str());
}

}  // namespace
}  // namespace memstress::metrics
