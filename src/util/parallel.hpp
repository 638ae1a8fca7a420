// The one work-sharing primitive for the embarrassingly parallel layers
// (characterization grid points, Monte-Carlo devices).
//
// Design rules that every user of this module relies on:
//   * Determinism is the caller's job and parallel_for makes it easy: tasks
//     are identified by index, so callers write results into pre-sized slots
//     and reduce in index order afterwards. Nothing here depends on
//     completion order.
//   * One code path at every thread count. The calling thread runs tasks
//     beside min(threads, count) - 1 workers that the call starts and joins
//     before it returns; there is no pool object. At 1 thread (or count
//     <= 1) no worker starts and the body runs inline on the caller, in
//     index order, like a plain for loop.
//   * The default thread count honours the MEMSTRESS_THREADS environment
//     variable, falling back to std::thread::hardware_concurrency().
//     Invalid values (garbage, <= 0, > 4096) select the hardware default
//     with a logged warning (util/env).
//   * Observability: every parallel_for accounts one `parallel.jobs` and
//     `count` `parallel.tasks`, and a cancelled one also one
//     `parallel.cancelled_jobs` (util/metrics), at every thread count, so
//     the `parallel.*` counters are invariant across MEMSTRESS_THREADS. When
//     workers start, every thread (the caller included) adopts the caller's
//     trace span, so spans opened inside task bodies nest under the
//     launching span as fan-out nodes.
//   * Claims are chunks. One atomic claim takes a run of consecutive
//     indices, max(1, count / (threads * 64)) of them: a large range of
//     cheap tasks (a 625k-device study) pays one shared-cursor operation
//     per chunk, not per index, while a range shorter than threads * 64
//     (characterize's cells) still goes out one index per claim, so uneven
//     tasks balance. The grain follows from the call alone; nothing sets it.
//   * Fail-fast and cancellation: after the first task exception, threads
//     stop claiming AND stop executing — at most one already-started task
//     per thread runs after the throw. Every index, including each one
//     inside a claimed chunk, first checks the abandon flag, the optional
//     job CancelToken and the process-wide SIGINT token (util/cancel); an
//     externally cancelled job quiesces and throws CancelledError from
//     parallel_for (a body exception takes precedence).
#pragma once

#include <cstddef>
#include <functional>

#include "util/cancel.hpp"

namespace memstress {

/// Worker count used when a caller asks for "default" parallelism:
/// MEMSTRESS_THREADS when set to a positive integer, otherwise
/// std::thread::hardware_concurrency(), never less than 1.
int default_thread_count();

/// Maps a requested count to an effective one: values >= 1 pass through,
/// 0 (or negative) means "use default_thread_count()".
int resolve_thread_count(int requested);

/// Run body(i) for every i in [0, count) on resolve_thread_count(threads)
/// threads, the caller included, and return when the range is done.
/// Indices are claimed dynamically in chunks from an atomic cursor (see the
/// grain rule above), so uneven task costs balance across threads, and
/// `parallel.tasks` counts indices, not claims. If any body throws, the rest
/// of the range is abandoned and the first exception is rethrown here after
/// every worker has been joined. When `cancel` (or the process SIGINT
/// token) trips, threads stop at the next index and CancelledError is
/// thrown instead. An empty range never throws.
void parallel_for(std::size_t count,
                  const std::function<void(std::size_t)>& body,
                  int threads = 0, const CancelToken* cancel = nullptr);

}  // namespace memstress
