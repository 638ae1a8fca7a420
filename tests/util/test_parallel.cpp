#include "util/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace memstress {
namespace {

/// RAII guard that sets MEMSTRESS_THREADS for one test and restores the
/// previous value on exit.
class ThreadsEnvGuard {
 public:
  explicit ThreadsEnvGuard(const char* value) {
    const char* old = std::getenv("MEMSTRESS_THREADS");
    if (old) saved_ = old;
    had_value_ = old != nullptr;
    if (value)
      ::setenv("MEMSTRESS_THREADS", value, 1);
    else
      ::unsetenv("MEMSTRESS_THREADS");
  }
  ~ThreadsEnvGuard() {
    if (had_value_)
      ::setenv("MEMSTRESS_THREADS", saved_.c_str(), 1);
    else
      ::unsetenv("MEMSTRESS_THREADS");
  }

 private:
  std::string saved_;
  bool had_value_ = false;
};

TEST(ParallelConfig, EnvOverrideWins) {
  ThreadsEnvGuard guard("3");
  EXPECT_EQ(default_thread_count(), 3);
  EXPECT_EQ(resolve_thread_count(0), 3);
}

TEST(ParallelConfig, ExplicitRequestBeatsEnv) {
  ThreadsEnvGuard guard("3");
  EXPECT_EQ(resolve_thread_count(7), 7);
  EXPECT_EQ(resolve_thread_count(1), 1);
}

TEST(ParallelConfig, GarbageEnvFallsBackToHardware) {
  ThreadsEnvGuard guard("not-a-number");
  EXPECT_GE(default_thread_count(), 1);
}

TEST(ParallelConfig, NonPositiveEnvFallsBackToHardware) {
  ThreadsEnvGuard guard("0");
  EXPECT_GE(default_thread_count(), 1);
  ThreadsEnvGuard negative("-4");
  EXPECT_GE(default_thread_count(), 1);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  constexpr std::size_t kCount = 1000;
  std::vector<std::atomic<int>> hits(kCount);
  parallel_for(kCount, [&](std::size_t i) { hits[i].fetch_add(1); }, 4);
  for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ParallelFor, SerialFallbackRunsInline) {
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(8);
  parallel_for(8, [&](std::size_t i) { seen[i] = std::this_thread::get_id(); },
               1);
  for (const auto& id : seen) EXPECT_EQ(id, caller);
}

TEST(ParallelFor, CallerRunsTasksBesideThreadsMinusOneWorkers) {
  // Each task holds its thread until all four have started, so the four
  // tasks need four threads at once: three workers and the caller.
  constexpr std::size_t kThreads = 4;
  std::mutex mutex;
  std::condition_variable all_started;
  std::size_t started = 0;
  std::vector<std::thread::id> seen(kThreads);
  parallel_for(
      kThreads,
      [&](std::size_t i) {
        std::unique_lock<std::mutex> lock(mutex);
        seen[i] = std::this_thread::get_id();
        if (++started == kThreads) all_started.notify_all();
        all_started.wait_for(lock, std::chrono::seconds(10),
                             [&] { return started == kThreads; });
      },
      static_cast<int>(kThreads));
  const std::set<std::thread::id> distinct(seen.begin(), seen.end());
  EXPECT_EQ(distinct.size(), kThreads);
  EXPECT_EQ(distinct.count(std::this_thread::get_id()), 1u);
}

TEST(ParallelFor, LargeRangeChunksCoverEveryIndexOnceAndStayFailFast) {
  // 2^20 + 123 indices at 4 threads: far more than threads * 64, so each
  // claim takes a chunk of 4096 consecutive indices, and the last one is
  // cut short at the end of the range.
  constexpr int kThreads = 4;
  constexpr std::size_t kCount = (std::size_t{1} << 20) + 123;
  constexpr std::size_t kGrain = kCount / (kThreads * 64);
  std::vector<std::atomic<unsigned char>> hits(kCount);
  parallel_for(kCount, [&](std::size_t i) { hits[i].fetch_add(1); },
               kThreads);
  std::size_t wrong = 0;
  for (std::size_t i = 0; i < kCount; ++i) wrong += hits[i].load() != 1;
  EXPECT_EQ(wrong, 0u);

  // Fail-fast holds inside a chunk: the throw lands mid-chunk, and no
  // thread runs on through the rest of the chunk it holds. Each task
  // outlasts the thrown->abandon window, as in
  // FailFastBoundsWorkAfterFirstThrow.
  constexpr std::size_t kThrowAt = 2 * kGrain + 17;
  std::atomic<bool> thrown{false};
  std::atomic<long> started_after_throw{0};
  std::atomic<long> executed{0};
  EXPECT_THROW(
      parallel_for(kCount,
                   [&](std::size_t i) {
                     if (i == kThrowAt) {
                       std::this_thread::sleep_for(
                           std::chrono::milliseconds(2));
                       thrown.store(true);
                       throw std::runtime_error("boom");
                     }
                     if (thrown.load()) started_after_throw.fetch_add(1);
                     executed.fetch_add(1);
                     std::this_thread::sleep_for(
                         std::chrono::microseconds(200));
                   },
                   kThreads),
      std::runtime_error);
  EXPECT_LE(started_after_throw.load(), kThreads);
  EXPECT_LT(executed.load(), static_cast<long>(kCount) / 2);
}

TEST(ParallelFor, FewHeavyTasksGoOutOneIndexPerClaim) {
  // 26 tasks at 4 threads (the cell count of a small characterize grid) is
  // fewer than threads * 64, so every claim takes one index. Each of the
  // first four tasks holds its thread until all four have started; only
  // one-index claims can start them on four threads at once (a two-index
  // chunk would queue index 1 behind index 0 on one thread). The wait's
  // timeout only ends a failing run; no assertion reads the clock.
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kCount = 26;
  std::mutex mutex;
  std::condition_variable all_started;
  std::size_t started = 0;
  std::vector<std::thread::id> seen(kCount);
  parallel_for(
      kCount,
      [&](std::size_t i) {
        std::unique_lock<std::mutex> lock(mutex);
        seen[i] = std::this_thread::get_id();
        if (i >= kThreads) return;
        if (++started == kThreads) all_started.notify_all();
        all_started.wait_for(lock, std::chrono::seconds(60),
                             [&] { return started == kThreads; });
      },
      static_cast<int>(kThreads));
  const std::set<std::thread::id> first_four(seen.begin(),
                                             seen.begin() + kThreads);
  EXPECT_EQ(first_four.size(), kThreads);
}

TEST(ParallelFor, EmptyAndSingleRangesWork) {
  int calls = 0;
  parallel_for(0, [&](std::size_t) { ++calls; }, 4);
  EXPECT_EQ(calls, 0);
  parallel_for(1, [&](std::size_t) { ++calls; }, 4);
  EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, ExceptionPropagatesToCaller) {
  EXPECT_THROW(parallel_for(64,
                            [&](std::size_t i) {
                              if (i == 13) throw std::runtime_error("boom");
                            },
                            4),
               std::runtime_error);
  // A failed job leaves nothing behind: the next one runs cleanly.
  std::atomic<int> ok{0};
  parallel_for(16, [&](std::size_t) { ok.fetch_add(1); }, 4);
  EXPECT_EQ(ok.load(), 16);
}

TEST(ParallelFor, MatchesSerialResultOrdering) {
  constexpr std::size_t kCount = 500;
  std::vector<double> serial(kCount), parallel(kCount);
  const auto f = [](std::size_t i) {
    return static_cast<double>(i) * 1.5 + 1.0 / (1.0 + static_cast<double>(i));
  };
  for (std::size_t i = 0; i < kCount; ++i) serial[i] = f(i);
  parallel_for(kCount, [&](std::size_t i) { parallel[i] = f(i); }, 8);
  EXPECT_EQ(serial, parallel);
}

TEST(ParallelFor, ExceptionPropagatesFromTransientPool) {
  EXPECT_THROW(parallel_for(32,
                            [](std::size_t i) {
                              if (i == 7) throw std::runtime_error("boom");
                            },
                            4),
               std::runtime_error);
}

TEST(ParallelFor, FailFastBoundsWorkAfterFirstThrow) {
  // After the first body exception, threads must stop claiming AND stop
  // executing claimed-but-unstarted tasks: at most one in-flight task per
  // thread runs to completion after the throw. Without the abandon flag the
  // whole 100k range would still execute.
  constexpr int kThreads = 4;
  constexpr std::size_t kCount = 100000;
  std::atomic<bool> thrown{false};
  std::atomic<long> started_after_throw{0};
  std::atomic<long> executed{0};
  EXPECT_THROW(
      parallel_for(kCount,
                   [&](std::size_t i) {
                     if (i == 0) {
                       // Let the other threads get busy, then fail.
                       std::this_thread::sleep_for(
                           std::chrono::milliseconds(2));
                       thrown.store(true);
                       throw std::runtime_error("boom");
                     }
                     if (thrown.load()) started_after_throw.fetch_add(1);
                     executed.fetch_add(1);
                     // Each task outlasts the thrown->abandon window by
                     // orders of magnitude, so no thread can start two
                     // tasks inside it.
                     std::this_thread::sleep_for(
                         std::chrono::microseconds(200));
                   },
                   kThreads),
      std::runtime_error);
  EXPECT_LE(started_after_throw.load(), kThreads);
  EXPECT_LT(executed.load(), static_cast<long>(kCount) / 2);
}

TEST(ParallelFor, ExternalCancelThrowsCancelledError) {
  CancelToken token;
  std::atomic<long> executed{0};
  EXPECT_THROW(parallel_for(100000,
                            [&](std::size_t) {
                              if (executed.fetch_add(1) + 1 == 8)
                                token.request_cancel();
                              std::this_thread::sleep_for(
                                  std::chrono::microseconds(50));
                            },
                            4, &token),
               CancelledError);
  // Cooperative: the tripped token stopped the range well short of done.
  EXPECT_LT(executed.load(), 100000);
  // A cancelled job leaves nothing behind: the next one runs cleanly.
  std::atomic<int> ok{0};
  parallel_for(16, [&](std::size_t) { ok.fetch_add(1); }, 4);
  EXPECT_EQ(ok.load(), 16);
}

TEST(ParallelFor, PreCancelledTokenRunsNoTasks) {
  CancelToken token;
  token.request_cancel();
  std::atomic<int> executed{0};
  EXPECT_THROW(
      parallel_for(64, [&](std::size_t) { executed.fetch_add(1); }, 4,
                   &token),
      CancelledError);
  EXPECT_EQ(executed.load(), 0);
}

TEST(ParallelFor, SerialPathHonoursCancelToken) {
  CancelToken token;
  int executed = 0;
  EXPECT_THROW(parallel_for(100,
                            [&](std::size_t i) {
                              ++executed;
                              if (i == 9) token.request_cancel();
                            },
                            1, &token),
               CancelledError);
  // Serial semantics: the task that tripped the token finishes, the next
  // boundary check stops the loop.
  EXPECT_EQ(executed, 10);
}

TEST(ParallelFor, ProcessTokenCancelsEveryJob) {
  cancel::process_token().reset();
  std::atomic<int> executed{0};
  EXPECT_THROW(parallel_for(1000,
                            [&](std::size_t i) {
                              executed.fetch_add(1);
                              if (i == 3) cancel::process_token().request_cancel();
                            },
                            1),
               CancelledError);
  cancel::process_token().reset();
  EXPECT_LT(executed.load(), 1000);
}

TEST(ParallelFor, BodyExceptionBeatsConcurrentCancel) {
  // When a task throws and the token also trips, the caller sees the real
  // error, not the cancellation.
  CancelToken token;
  EXPECT_THROW(parallel_for(64,
                            [&](std::size_t i) {
                              if (i == 5) {
                                token.request_cancel();
                                throw std::runtime_error("real failure");
                              }
                            },
                            4, &token),
               std::runtime_error);
}

}  // namespace
}  // namespace memstress
