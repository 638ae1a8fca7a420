// RAII timing spans with parent/child nesting, aggregated into a
// process-wide tree keyed by span path.
//
// A Span measures the wall time of a scope and attributes it to the node
// whose path is (current span's path, name). Identical paths aggregate:
// entering "estimator.characterize" twice yields one node with count 2.
//
// Nesting across threads: spans started on a parallel_for worker attach to
// whatever span was current on the thread that *launched* the job.
// util/parallel captures current_context() in parallel_for and installs it
// via ContextGuard on every thread that runs tasks, the caller included, so
// a span opened inside a task body lands under the caller's span exactly as
// it would serially. Such a span is marked
// fan-out: its time is summed across the workers, so it is busy time, not
// a share of its parent's wall time.
//
// Spans obey the metrics::enabled() toggle: when disabled at construction a
// Span is inert (two null-pointer writes). Aggregation uses one mutex per
// process — spans are for phases and tasks (>= microseconds), not for
// inner-loop ops; use metrics::Counter for those.
#pragma once

#include <chrono>
#include <string>
#include <vector>

namespace memstress::trace {

/// Times a scope and adds it to the span tree on destruction.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void* node_ = nullptr;  ///< null when metrics were disabled at entry
  void* parent_ = nullptr;
  std::chrono::steady_clock::time_point start_;
};

/// Opaque handle to this thread's current span (null at top level). Capture
/// it before handing work to another thread.
void* current_context();

/// Installs a captured context as this thread's current span for the guard's
/// lifetime (used by parallel_for on every thread of a fanned-out job). Spans
/// entered while a guard is active are marked fan-out.
class ContextGuard {
 public:
  explicit ContextGuard(void* context);
  ~ContextGuard();
  ContextGuard(const ContextGuard&) = delete;
  ContextGuard& operator=(const ContextGuard&) = delete;

 private:
  void* prev_ = nullptr;
};

/// Aggregated tree snapshot (pruned of never-entered nodes); root spans in
/// first-entered order.
struct NodeSnapshot {
  std::string name;
  long long count = 0;
  double total_s = 0.0;  ///< wall time, or summed worker time when fanout
  bool fanout = false;   ///< entered under a ContextGuard
  std::vector<NodeSnapshot> children;
};
std::vector<NodeSnapshot> snapshot();

/// Zero all span counts/times. Node storage is retained so live Spans stay
/// valid; do not expect a concurrent in-flight span to be erased.
void reset();

}  // namespace memstress::trace
