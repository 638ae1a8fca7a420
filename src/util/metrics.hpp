// Pipeline observability: process-wide named counters and histograms plus
// the per-run report that serializes them.
//
// Design rules every instrumented hot path relies on:
//   * Near-zero cost when disabled: Counter::add() and Histogram::record()
//     are a relaxed atomic load and a predictable branch when metrics are
//     off. Call sites cache the registry handle in a function-local static,
//     so the name lookup happens once per process, not per event.
//   * Scheduling-free values: a counter is a fixed array of cache-line
//     shards, each an atomic accumulator. A thread adds to its own shard
//     (handed out round-robin on its first add) and a read sums the shards,
//     so concurrent threads counting one event do not fight over one line,
//     and totals depend only on the work performed, never on how
//     parallel_for scheduled it — op counts are bit-identical at any
//     MEMSTRESS_THREADS. A read taken while a run is adding is a sum of
//     relaxed loads: each shard is exact, the sum is not one instant's total.
//   * Registry handles are stable for the process lifetime; reset() zeroes
//     values but never invalidates a Counter& or Histogram&.
//
// The toggle: metrics::set_enabled() programmatically, or the
// MEMSTRESS_METRICS environment variable (1/true/on/yes) read once at first
// use.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/trace.hpp"

namespace memstress::metrics {

namespace detail {
std::atomic<bool>& enabled_flag();
}

/// True when instrumentation is recording. Cheap enough for hot paths.
inline bool enabled() {
  return detail::enabled_flag().load(std::memory_order_relaxed);
}

/// Turn recording on/off for the whole process (overrides the env toggle).
void set_enabled(bool on);

/// A named monotonic event counter. Thread-safe; totals are independent of
/// scheduling (atomic addition into per-thread shards, summed on read).
class Counter {
 public:
  /// Shards per counter. The k-th thread to add to any counter adds to
  /// shard k mod kShards; threads that share a shard cost each other
  /// contention, never exactness.
  static constexpr std::size_t kShards = 16;

  void add(long long delta = 1) {
    if (enabled()) add_to_shard(delta);
  }
  long long value() const;

 private:
  friend void reset();
  struct alignas(64) Shard {
    std::atomic<long long> value{0};
  };
  void add_to_shard(long long delta);

  std::array<Shard, kShards> shards_{};
};

/// A named value distribution (count / sum / min / max plus log-scaled
/// buckets for quantile estimates). Coarse-grained — guarded by a mutex, so
/// record per task or per run, not per inner-loop op.
///
/// Quantiles come from a fixed array of logarithmic buckets (8 per decade
/// covering 1e-12 .. 1e4, the span from nanosecond latencies to hour-long
/// runs), so p50/p99/p999 are estimates with ~15% relative resolution and
/// O(1) memory — good enough to alarm on an SLO, not for billing.
class Histogram {
 public:
  /// Log-bucket geometry shared by record() and quantile().
  static constexpr int kBucketsPerDecade = 8;
  static constexpr int kBucketCount = 128;      // 16 decades
  static constexpr double kBucketFloor = 1e-12; // bucket 0 lower edge

  void record(double value);

  struct Snapshot {
    long long count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    std::array<long long, kBucketCount> buckets{};
    double mean() const { return count > 0 ? sum / count : 0.0; }
    /// Estimated value at quantile q in [0, 1] (0 when empty). Clamped to
    /// the observed [min, max] so a one-sample histogram answers exactly.
    double quantile(double q) const;
  };
  Snapshot snapshot() const;

 private:
  friend void reset();
  void clear();

  mutable std::mutex mutex_;
  Snapshot stats_;
};

/// Registry lookup (creates on first use). The returned reference is valid
/// for the process lifetime; cache it in a function-local static on hot
/// paths.
Counter& counter(const std::string& name);
Histogram& histogram(const std::string& name);

/// Zero every counter/histogram and clear the span tree. Handles stay
/// valid. Call between measured runs (e.g. per thread-count invariance leg).
void reset();

/// Append a free-form annotation line to the run report — used for run
/// events that need more than a count, e.g. each quarantined grid point
/// with its reason and attempt tally. Gated by enabled() like counters;
/// reset() clears. Capped (oldest kept) so a pathological run cannot grow
/// the registry without bound.
void note(const std::string& text);

// ---------------------------------------------------------------------------
// RunReport: one snapshot of everything observed since the last reset().

struct CounterValue {
  std::string name;
  long long value = 0;
};

struct HistogramValue {
  std::string name;
  Histogram::Snapshot stats;
};

/// Aggregated timing-span node (collected from util/trace).
using SpanValue = trace::NodeSnapshot;

struct RunReport {
  std::vector<CounterValue> counters;      ///< sorted by name, nonzero only
  std::vector<HistogramValue> histograms;  ///< sorted by name, nonempty only
  std::vector<SpanValue> spans;            ///< root spans in creation order
  std::vector<std::string> notes;          ///< annotation lines, in order

  /// Compact single-line JSON:
  /// {"counters":{...},"histograms":{...},"spans":[...],"notes":[...]};
  /// a fan-out span node carries "fanout":true.
  std::string to_json() const;

  /// Human-readable report: a counter table, a histogram table, and the
  /// span tree with share-of-root ASCII bars. A fan-out span's time is
  /// summed across workers, so it goes in its own "busy s" column with no
  /// share; only wall-time spans get a share of the (wall-time) roots.
  std::string to_table() const;
};

/// Snapshot the registry and span tree into a report.
RunReport collect();

// ---------------------------------------------------------------------------
// NDJSON metrics stream: periodic RunReport snapshots a dashboard can tail.
//
// The host that wants a stream owns it by constructing a SnapshotStreamer
// with its target: memstressd passes its MEMSTRESS_METRICS_STREAM value,
// `bench_soak --stream PATH` its path. The library reads no stream
// environment variable, and a bare Server does not stream. Each emitted
// line is one self-contained JSON document:
//   {"stream":"metrics","seq":N,"uptime_ms":M,"label":"...","report":{...}}
// so `tail -f` piped into any NDJSON consumer sees complete frames. The
// stream is additive observability: nothing in the library changes behavior
// because a stream is attached.

/// RAII background emitter: one snapshot every `interval_ms` plus a final
/// one at destruction, so even a short-lived process leaves a complete
/// stream. `target` is a path (opened in append mode), a numeric file
/// descriptor the process inherited (never closed here), or "" for no
/// stream. `seq` counts from 1 per streamer, and `label` tags every line so
/// multi-phase runs are separable. A live stream also turns recording on
/// (set_enabled(true)). With no target, or one that fails to open (warned
/// once), it spawns no thread and changes nothing; a failed write warns once
/// and the stream carries on.
class SnapshotStreamer {
 public:
  SnapshotStreamer(const std::string& target, int interval_ms,
                   std::string label = "");
  ~SnapshotStreamer();
  SnapshotStreamer(const SnapshotStreamer&) = delete;
  SnapshotStreamer& operator=(const SnapshotStreamer&) = delete;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace memstress::metrics
