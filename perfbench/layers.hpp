// Per-layer observations gathered by a traced run, and the functions that
// turn them into the per-layer metrics BENCHMARK.json names.
//
// A traced run executes the workload once with the library's counters on
// and the benchmark's spans recording. Each group below is filled from the
// workload when the workload's own process makes the group's call; a group
// the workload never calls is filled by a small fixed run of that call (a
// "fallback"), so every traced run reports every per-layer metric from a
// real measurement. The microbenchmark probes run in every traced run.
#pragma once

#include <optional>
#include <vector>

#include "harness.hpp"

namespace memstress::perfbench {

/// estimator::characterize(): library counters of the analog kernel, the
/// tester and the retry ladder, plus wall and summed worker time.
struct CharacterizeObs {
  double wall_s = 0.0;
  int threads = 1;
  double busy_s = 0.0;  ///< summed worker time inside the batched kernel
  long long newton = 0, steps = 0, halvings = 0, lanes = 0, ejections = 0,
            refactorizations = 0, avoided = 0, analog_cycles = 0,
            quarantined = 0, retries = 0;
};

/// study::run_study() calls and the counters of the pass that made them.
struct StudyObs {
  double wall_s = 0.0;
  long long devices = 0;  ///< devices requested across the calls
  long long lib_devices = 0, defects = 0, db_lookups = 0, parallel_jobs = 0,
            parallel_tasks = 0;
};

/// A traffic session against a forked memstressd.
struct ServeObs {
  long long hits = 0, misses = 0, coalesced = 0, evictions = 0, busy = 0;
  double server_p50_ms = 0.0, server_p99_ms = 0.0;
  double client_p50_ms = 0.0;
  double late_p99_ms = 0.0, late_max_ms = 0.0;
  double hit_rtt_us = 0.0;
};

/// server::Coordinator calls.
struct CoordObs {
  double characterize_s = 0.0, study_s = 0.0;
  long long total = 0, dispatched = 0, hedged = 0, deduped = 0, retried = 0;
};

struct TracedPass {
  std::optional<CharacterizeObs> characterize;
  std::vector<double> table1_ms;
  std::vector<double> schedule_ms;
  std::optional<StudyObs> study;
  std::optional<ServeObs> serve;
  std::optional<CoordObs> coord;
  /// Traced headline metric over the untraced one, minus one.
  double overhead_ratio = 0.0;
};

/// Turn on library counters and benchmark spans (reset first).
void begin_traced_pass();
/// Collect the library report of the pass and turn recording off again.
metrics::RunReport end_traced_pass();

CharacterizeObs characterize_obs(const metrics::RunReport& report,
                                 double wall_s, int threads);
StudyObs study_obs(const metrics::RunReport& report, double wall_s,
                   long long devices);

/// Fill the groups the workload did not exercise from fallback runs, run
/// the microbenchmark probes, and emit every per-layer metric into `out`.
void emit_layer_metrics(const Options& options, TracedPass& pass, Result& out);

// Fallbacks that need a forked server, defined with their workloads.
ServeObs fallback_serve_session(const Options& options);
CoordObs fallback_coordinator(const Options& options);

}  // namespace memstress::perfbench
