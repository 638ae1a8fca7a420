// The four workloads, and the inputs the layer probes share with them.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "harness.hpp"
#include "study/study.hpp"

namespace memstress::perfbench {

/// The Figure-2 flow on sram6t: default-grid characterize, Table 1, the
/// 11k-device study, the schedule trade-off and the optimizer.
void run_paper_flow(const Options& options, Result& out);
/// Monte-Carlo studies at production volume over the undervolt database.
void run_yield_study(const Options& options, Result& out);
/// Open-loop served query mix against a forked memstressd.
void run_serve_mix(const Options& options, Result& out);
/// Distributed characterize and study over four forked workers.
void run_fleet(const Options& options, Result& out);

/// The reduced sram6t grid the fleet characterizes: default resistance and
/// breakdown-voltage axes (full lockstep lanes), fewer stress conditions.
estimator::CharacterizeSpec fleet_characterize_spec(bool tiny);
/// The fleet's distributed study population.
study::StudyConfig fleet_study_config(std::uint64_t seed, bool tiny);

/// `count` request lines drawn from the serve_mix request mix.
std::vector<std::string> serve_sample_lines(std::uint64_t seed,
                                            std::size_t count);

/// One trial of serve_mix's rate staircase.
struct StaircaseTrial {
  std::size_t rung = 0;
  bool passed = false;
};

/// serve_mix's staircase over a ladder of `rungs` offered rates, starting at
/// `start`: `run(rung)` runs one short trial at that rung's rate on fresh
/// keys and returns whether it passed; a pass moves up one rung and a
/// failure down one, so the trials gather around the rate at which a trial
/// passes half of the time.
std::vector<StaircaseTrial> staircase(std::size_t rungs, std::size_t start, int trials,
                                      const std::function<bool(std::size_t rung)>& run);
/// The staircase's estimate of that rate: the mean of the trials' offered
/// rates from the first reversal (the first trial whose outcome differs from
/// the first one's) on, or the last trial's rate when none reversed.
double staircase_estimate(const std::vector<StaircaseTrial>& trials,
                          const std::vector<double>& offered_rps);

/// Checks of serve_mix's staircase on scripted trials; prints one line per
/// check and returns how many failed.
int check_serve_mix_logic();

}  // namespace memstress::perfbench
