// Fault-tolerant distributed coordinator: shard the characterization grid
// and the Monte-Carlo study population across N memstressd workers and
// merge the partial results into the *same bytes* a single node produces.
//
// Work model: the canonical grid/population order is cut into fixed-size
// shards. One dispatcher thread per worker pulls the lowest-numbered
// pending shard, sends it as a `characterize_range` / `study_shard` request
// and commits the result slot under the coordinator lock. Because slots are
// indexed by canonical position, completion order — and therefore worker
// count, kill schedule and chaos rate — can never change the merged output:
// the CSV and tallies are byte-identical to estimator::characterize() /
// study::run_study() at any fleet shape.
//
// Failure handling, layer by layer:
//   * Worker slow (receive timeout / structured retryable error): the shard
//     is retried with capped exponential backoff, up to max_shard_attempts
//     failures, on whichever dispatcher gets to it first.
//   * Worker died (ConnectionLost: refused, reset, EOF mid-frame): the
//     shard is requeued onto survivors *immediately* — no backoff burned —
//     and the dead worker enters a health-probe quarantine loop. A probe
//     success readmits it; probe exhaustion declares it dead for the run.
//   * Stragglers: an idle dispatcher duplicates the lowest in-flight shard
//     (hedged dispatch, always on, at most one duplicate per shard). The
//     first result to commit wins; the loser is counted in shards_deduped
//     and dropped.
//   * Exhausted retries / no live workers: the run degrades gracefully —
//     unfinished shards are reported in stats().unresolved, their grid
//     points become QuarantineEntry rows (the PR 3 contract) or unresolved
//     devices excluded from the study tallies, and the caller still gets
//     every result that did complete.
//
// Observability: coord.* metrics (shards_dispatched/retried/requeued/
// hedged/deduped, quarantined/readmitted/dead workers, unresolved_shards)
// plus one metrics::note per unresolved shard.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "estimator/detectability.hpp"
#include "study/study.hpp"

namespace memstress::server {

/// One memstressd worker the coordinator may dispatch to.
struct WorkerEndpoint {
  std::string address = "127.0.0.1";
  int port = 0;
};

struct CoordinatorConfig {
  std::vector<WorkerEndpoint> workers;
  /// Grid points per characterize shard / devices per study shard. Shard
  /// size trades dispatch overhead against retry granularity; it never
  /// affects the merged bytes.
  int characterize_shard_points = 64;
  int study_shard_devices = 2048;
  /// Per-dispatch deadline (the client's receive timeout). A shard that
  /// overruns it counts one failed attempt and is retried with backoff.
  int shard_timeout_ms = 120000;
  /// Failed attempts per shard (across all workers, hedges included)
  /// before it is abandoned as unresolved.
  int max_shard_attempts = 5;
  /// Backoff between retry attempts of the same shard: doubles from
  /// backoff_initial_ms up to backoff_max_ms. ConnectionLost requeues skip
  /// the backoff entirely — the shard moves to a survivor at once.
  int backoff_initial_ms = 10;
  int backoff_max_ms = 500;
  /// Health probes (with the same doubling backoff) before a quarantined
  /// worker is declared dead for the rest of the run.
  int probe_attempts = 3;
  /// spec.threads / config.threads sent to each worker (1 = serial worker;
  /// workers on multicore hosts can fan out internally).
  int worker_threads = 1;
};

/// A shard the run could not complete (retries exhausted or every worker
/// dead). Its positions surface as quarantined grid points / unresolved
/// devices in the merged result.
struct UnresolvedShard {
  std::size_t shard = 0;  ///< shard id in canonical order
  std::size_t begin = 0;  ///< first grid point / device (inclusive)
  std::size_t end = 0;    ///< last grid point / device (exclusive)
  std::string reason;     ///< last failure message
  int attempts = 0;       ///< failed dispatch attempts
};

/// Run accounting, mirrored into coord.* metrics counters.
struct CoordinatorStats {
  long shards_total = 0;
  long shards_dispatched = 0;  ///< dispatch attempts, hedges included
  long shards_retried = 0;     ///< failed attempts that were re-dispatched
  long shards_requeued = 0;    ///< shards moved off a lost worker
  long shards_hedged = 0;      ///< duplicate dispatches for stragglers
  long shards_deduped = 0;     ///< duplicate completions dropped
  long workers_quarantined = 0;
  long workers_readmitted = 0;
  long workers_dead = 0;
  std::vector<UnresolvedShard> unresolved;

  bool complete() const { return unresolved.empty(); }
};

class Coordinator {
 public:
  explicit Coordinator(CoordinatorConfig config);

  /// Distributed estimator::characterize(): shard the canonical grid over
  /// the fleet and merge verdicts in canonical order. The returned database
  /// carries the usual spec fingerprint; with every shard resolved its CSV
  /// is byte-identical to a single-node run. Unresolved points are
  /// quarantined with reason "unresolved shard: ...".
  estimator::DetectabilityDb characterize(
      const estimator::CharacterizeSpec& spec);

  /// Distributed study::run_study(): shard the device population over the
  /// fleet and reduce the merged outcome masks. `db` is the database the
  /// workers were built with — only its CRC travels, as the `db_crc` guard
  /// that rejects a worker serving a different database. Unresolved devices
  /// are excluded from every tally (result.devices reports the resolved
  /// count).
  study::StudyResult run_study(const study::StudyConfig& config,
                               const estimator::DetectabilityDb& db);

  /// Accounting for the most recent characterize()/run_study() call.
  const CoordinatorStats& stats() const { return stats_; }

 private:
  struct Engine;  ///< shared dispatch/retry/hedge machinery (coordinator.cpp)

  CoordinatorConfig config_;
  CoordinatorStats stats_;
};

}  // namespace memstress::server
