#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "util/env.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace memstress {

namespace {

/// Chunks per thread over a whole range (the grain rule in parallel.hpp).
constexpr std::size_t kChunksPerThread = 64;

/// What the threads of one call share. It lives in the caller's frame, and
/// the caller writes the stack below it for every task it runs. On cache
/// lines of its own, with everything else a task needs passed to claim_loop
/// by value, no such write lands on a line another thread reads per index.
/// Such a line would cost every worker a miss per task, and only in the
/// processes whose stack happens to start where the two meet.
struct alignas(64) Claims {
  std::atomic<std::size_t> cursor{0};
  // Tripped on the first body exception (or a failed spawn). It stops
  // claims, and it stops claimed-but-unstarted tasks from executing, which
  // bounds post-failure work to at most one task per thread.
  std::atomic<bool> abandon{false};
  // Set when a thread observed an external cancellation request.
  std::atomic<bool> saw_cancel{false};
  std::mutex error_mutex;
  std::exception_ptr error;
};

/// The claim loop every thread runs, the caller included. The range, grain,
/// body and token come in as arguments, so each thread reads them from its
/// own frame. Claiming before the cancel check means an empty range never
/// throws, even when a token has already tripped. Every index of a chunk
/// checks the abandon flag and both tokens before it runs, as if it had
/// been claimed alone.
void claim_loop(Claims& claims, std::size_t count, std::size_t grain,
                const std::function<void(std::size_t)>& body,
                const CancelToken* cancel) {
  for (;;) {
    if (claims.abandon.load(std::memory_order_relaxed)) return;
    const std::size_t first =
        claims.cursor.fetch_add(grain, std::memory_order_relaxed);
    if (first >= count) return;
    const std::size_t last = first + std::min(grain, count - first);
    for (std::size_t i = first; i < last; ++i) {
      if (claims.abandon.load(std::memory_order_relaxed)) return;
      if (cancel::requested(cancel)) {
        claims.saw_cancel.store(true, std::memory_order_relaxed);
        return;
      }
      try {
        body(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(claims.error_mutex);
        if (!claims.error) claims.error = std::current_exception();
        claims.abandon.store(true, std::memory_order_relaxed);
        return;
      }
    }
  }
}

}  // namespace

int default_thread_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  const long fallback = hw == 0 ? 1 : static_cast<long>(hw);
  return static_cast<int>(env_int_or("MEMSTRESS_THREADS", 1, 4096, fallback));
}

int resolve_thread_count(int requested) {
  return requested >= 1 ? requested : default_thread_count();
}

void parallel_for(std::size_t count,
                  const std::function<void(std::size_t)>& body, int threads,
                  const CancelToken* cancel) {
  static metrics::Counter& jobs = metrics::counter("parallel.jobs");
  static metrics::Counter& tasks = metrics::counter("parallel.tasks");
  jobs.add(1);
  tasks.add(static_cast<long long>(count));

  const auto thread_count =
      static_cast<std::size_t>(resolve_thread_count(threads));
  const std::size_t grain =
      std::max<std::size_t>(1, count / (thread_count * kChunksPerThread));
  Claims claims;

  // The caller is one of the threads, and no thread starts without a task.
  const std::size_t worker_count =
      count > 1 ? std::min(thread_count, count) - 1 : 0;
  if (worker_count == 0) {
    claim_loop(claims, count, grain, body, cancel);
  } else {
    // Every thread adopts the caller's span, so task spans nest under it
    // as fan-out nodes.
    void* const span_context = trace::current_context();
    const auto traced_loop = [&claims, count, grain, &body, cancel,
                              span_context] {
      trace::ContextGuard span_guard(span_context);
      claim_loop(claims, count, grain, body, cancel);
    };
    std::vector<std::thread> workers;
    workers.reserve(worker_count);
    try {
      for (std::size_t t = 0; t < worker_count; ++t)
        workers.emplace_back(traced_loop);
    } catch (...) {
      claims.abandon.store(true, std::memory_order_relaxed);
      for (std::thread& worker : workers) worker.join();
      throw;
    }
    traced_loop();
    for (std::thread& worker : workers) worker.join();
  }

  if (claims.error) std::rethrow_exception(claims.error);
  if (claims.saw_cancel.load(std::memory_order_relaxed)) {
    static metrics::Counter& cancelled =
        metrics::counter("parallel.cancelled_jobs");
    cancelled.add(1);
    throw CancelledError("parallel_for: job cancelled before completing " +
                         std::to_string(count) + " tasks");
  }
}

}  // namespace memstress
