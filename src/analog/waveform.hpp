// Piecewise-linear stimulus waveforms and recorded traces.
#pragma once

#include <string>
#include <vector>

namespace memstress::analog {

/// A piecewise-linear voltage waveform, SPICE "PWL" style.
///
/// Between breakpoints the value is linearly interpolated; before the first
/// breakpoint it holds the first value, after the last it holds the last.
class PwlWaveform {
 public:
  PwlWaveform() = default;

  /// A constant (DC) waveform.
  static PwlWaveform dc(double volts);

  /// Append a breakpoint; times must be non-decreasing.
  void add_point(double time_s, double volts);

  /// Value at an arbitrary time.
  double value(double time_s) const;

  /// Convenience: append a linear ramp from the current last value to
  /// `volts`, starting at `start_s` and taking `ramp_s` seconds. If the
  /// waveform is empty the value simply starts at `volts`.
  void step_to(double start_s, double volts, double ramp_s);

  bool empty() const { return points_.empty(); }
  std::size_t size() const { return points_.size(); }
  double last_time() const { return points_.empty() ? 0.0 : points_.back().time; }
  double last_value() const { return points_.empty() ? 0.0 : points_.back().volts; }

  /// Breakpoint times (for event-aware transient stepping).
  std::vector<double> breakpoint_times() const;

 private:
  struct Point {
    double time;
    double volts;
  };
  std::vector<Point> points_;
};

/// A set of node-voltage samples recorded during a transient run.
class Trace {
 public:
  Trace(std::vector<std::string> signal_names);

  /// Append one time point; `values` arity must match the signal count.
  void append(double time_s, const std::vector<double>& values);

  std::size_t sample_count() const { return times_.size(); }
  const std::vector<std::string>& names() const { return names_; }
  const std::vector<double>& times() const { return times_; }

  /// Index of a named signal; throws Error if absent.
  std::size_t signal_index(const std::string& name) const;

  /// All samples of one signal.
  const std::vector<double>& samples(std::size_t signal) const;

  /// Linear interpolation of `signal` at `time_s` (clamped to the range).
  double value_at(std::size_t signal, double time_s) const;
  double value_at(const std::string& name, double time_s) const;

 private:
  std::vector<std::string> names_;
  std::vector<double> times_;
  std::vector<std::vector<double>> samples_;  // per signal
};

}  // namespace memstress::analog
