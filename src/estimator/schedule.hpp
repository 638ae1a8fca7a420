// Production test-schedule optimization (the paper's Section 6).
//
// "Test time is an issue during production when we consider the
//  implementation of many algorithms under various stress conditions.
//  Hence, it is recommended to have the best test algorithms combined with
//  specific stress conditions (VLV at low frequency, Vnom and Vmax at high
//  frequency) to reduce test escapes and deliver high quality products."
//
// This module turns that recommendation into a tool: given the
// detectability database, the fab model and the memory geometry, it
// searches subsets of candidate (voltage, period) legs for the cheapest
// schedule that meets a DPM target — and reports the escape/test-time
// trade-off curve.
//
// Every search samples its Monte-Carlo defects once. Each defect is looked
// up once per candidate leg into a bitmask of the legs that catch it, and
// the escapes of all 2^k leg subsets are counted from the histogram of
// those masks. So a search costs spec.monte_carlo_defects draws and k
// lookups per draw, plus O(k * 2^k) counting in O(2^k) memory, and every
// subset sees the same defects. The 2^k histogram is why every entry point
// takes at most 16 legs.
#pragma once

#include <string>
#include <vector>

#include "defects/sampler.hpp"
#include "estimator/detectability.hpp"
#include "march/march.hpp"
#include "util/rng.hpp"

namespace memstress::estimator {

/// One candidate test leg: a stress condition plus the march test run there.
struct TestLeg {
  std::string name;
  sram::StressPoint at;
  int march_complexity = 11;  ///< ops per cell (test time = N * cells * period)

  double time_per_cell() const { return march_complexity * at.period; }
};

/// The paper's standard candidate legs.
std::vector<TestLeg> standard_legs();

/// A chosen schedule with its predicted quality and cost.
struct Schedule {
  std::vector<TestLeg> legs;
  double escape_fraction = 0.0;  ///< P(defective device ships | defective)
  double dpm = 0.0;              ///< escapes per million shipped
  double test_time_per_cell = 0.0;

  std::string describe() const;
};

struct ScheduleSpec {
  double yield = 0.95;
  double target_dpm = 500.0;
  int monte_carlo_defects = 4000;  ///< sampled defects for escape estimation
  std::uint64_t seed = 1;
};

/// Estimate the escape fraction of a set of legs by Monte-Carlo sampling
/// defects from the site population and querying the database. The same
/// seed gives bit-equal fractions here and in the two searches below. Throws
/// Error for more than 16 legs.
double escape_fraction(const std::vector<TestLeg>& legs,
                       const DetectabilityDb& db,
                       const defects::DefectSampler& sampler,
                       const ScheduleSpec& spec);

/// Exhaustively search all subsets of `candidates` (they are few) and
/// return the cheapest schedule meeting the DPM target; if none meets it,
/// returns the subset with the lowest DPM. Deterministic for a given seed.
Schedule optimize_schedule(const std::vector<TestLeg>& candidates,
                           const DetectabilityDb& db,
                           const defects::DefectSampler& sampler,
                           const ScheduleSpec& spec);

/// The full trade-off curve: for each subset, its (time, dpm) point —
/// sorted by time; useful for plotting the Pareto front.
std::vector<Schedule> schedule_tradeoff(const std::vector<TestLeg>& candidates,
                                        const DetectabilityDb& db,
                                        const defects::DefectSampler& sampler,
                                        const ScheduleSpec& spec);

}  // namespace memstress::estimator
