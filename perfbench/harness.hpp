// Shared plumbing for the memstress benchmark: options, the result record,
// the benchmark's own span tracer, process accounting, and the inputs every
// workload builds the same way.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "defects/sampler.hpp"
#include "estimator/detectability.hpp"
#include "server/service.hpp"
#include "util/metrics.hpp"

namespace memstress::perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}
inline double seconds_since(Clock::time_point from) {
  return seconds_between(from, Clock::now());
}

/// Worker threads every workload pins (the paper flow, the study, the
/// server's worker pool); main() also pins MEMSTRESS_THREADS to it.
inline constexpr int kThreads = 4;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 15.0;  ///< how long the timed section runs
  bool trace = false;
  /// Self-test scale: every workload on tiny inputs, seconds in total.
  bool tiny = false;
  /// Where a traced run writes its spans (empty = nowhere).
  std::string trace_path;
};

/// Median of the values (0 when empty).
double median(std::vector<double> values);
/// Quantile interpolated linearly between the closest ranks, q in [0, 1]
/// (0 when empty); steadier than nearest rank on the few samples of a run.
double quantile(std::vector<double> values, double q);
/// The values as text, space separated, for the run record.
std::string join(const std::vector<double>& values);

/// A mixing function for deriving independent sub-seeds from --seed
/// (below 2^53, so they survive a JSON round trip).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

// ---------------------------------------------------------------------------
// The run's result: metrics with units, output digests for the reference
// check, and the self-contained output checks.

class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// An output digest for the reference check. `per_seed` digests depend on
  /// --seed; the others are the same for every seed.
  void digest(const std::string& name, const std::string& value,
              bool per_seed = true);
  void check(const std::string& name, bool ok, const std::string& detail = "");
  void info(const std::string& name, const std::string& value);
  void info(const std::string& name, double value);

  bool correct() const;

  long long attempted = 0;
  long long failed = 0;

  /// {"correct":..,"attempted":..,"failed":..,"metrics":{..},
  ///  "digests":{"seed":{..},"fixed":{..}},"checks":[..],"info":{..}}
  std::string to_json() const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  struct Check {
    std::string name;
    bool ok = false;
    std::string detail;
  };
  std::vector<Metric> metrics_;
  server::Json seed_digests_ = server::Json::object();
  server::Json fixed_digests_ = server::Json::object();
  std::vector<Check> checks_;
  server::Json info_ = server::Json::object();
};

// ---------------------------------------------------------------------------
// Spans recorded by the benchmark around every call it makes into a layer.
// In memory only; written out once when the run ends.

struct SpanRecord {
  long long id = 0;
  long long parent = -1;      ///< -1 for a root span
  long long request_id = -1;  ///< serve_mix: shared by all spans of a request
  std::string name;           ///< "<layer>.<call>"
  double start_s = 0.0;       ///< since the tracer's epoch
  double end_s = 0.0;
};

class Tracer {
 public:
  static Tracer& instance();

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// RAII span on the calling thread; nests under the thread's open span.
  class Scope {
   public:
    explicit Scope(const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    const char* name_;
    long long id_ = -1;
    long long parent_ = -1;
    Clock::time_point start_;
  };

  /// A span measured by the caller (e.g. a request from its due time).
  void record(const std::string& name, Clock::time_point start,
              Clock::time_point end, long long request_id = -1);

  /// Self time per layer (span minus the part its children cover), in s.
  std::map<std::string, double> layer_self_s() const;

  /// {"spans":[...],"layer_self_s":{...}}
  void write(const std::string& path) const;

 private:
  Tracer();
  long long next_id();
  void push(SpanRecord record);

  bool enabled_ = false;
  Clock::time_point epoch_;
  struct Impl;
  std::shared_ptr<Impl> impl_;
};

// ---------------------------------------------------------------------------
// Process accounting.

/// User + system CPU seconds of this process.
double self_cpu_s();
/// User + system CPU seconds of a live child (0 when unreadable).
double pid_cpu_s(pid_t pid);
/// Peak resident set (VmHWM) in MiB of this process / a live child.
double self_peak_rss_mb();
double pid_peak_rss_mb(pid_t pid);

/// Wall time of a fixed CPU-bound loop in ms, run before and after the timed
/// section so a run on a slowed machine is visible in its record.
double calibration_ms();

/// CPU seconds over the timed section for this process plus `children`.
class CpuMeter {
 public:
  explicit CpuMeter(std::vector<pid_t> children = {});
  double elapsed_s() const;

 private:
  std::vector<pid_t> children_;
  double self_start_ = 0.0;
  std::vector<double> child_start_;
};

// ---------------------------------------------------------------------------
// Inputs shared by the workloads and the probes.

/// The 2x1 transistor-level block every flow in the repository simulates.
sram::BlockSpec standard_block();

/// The paper's default sram6t grid (2004 points), batched solver, pinned
/// threads, no checkpoints.
estimator::CharacterizeSpec paper_spec();

/// The default-grid undervolt spec (4008 entries, closed-form physics).
estimator::CharacterizeSpec undervolt_spec();

/// Site population of the 8x8 reference layout, as the pipeline builds it.
defects::DefectSampler make_sampler();

/// The undervolt database the serving and fleet workloads serve.
std::shared_ptr<const estimator::DetectabilityDb> build_undervolt_db();

/// A service built the way memstressd builds one.
std::shared_ptr<const server::MemstressService> make_service(
    std::shared_ptr<const estimator::DetectabilityDb> db,
    server::ServiceInfo info);

/// CRC32 of a string as 8 hex digits.
std::string crc_hex(const std::string& text);

/// Library counter value from a run report (0 when absent).
long long counter_of(const metrics::RunReport& report, const std::string& name);
/// Summed total_s of every library span with this name, at any depth.
double lib_span_total_s(const metrics::RunReport& report,
                        const std::string& name);

}  // namespace memstress::perfbench
