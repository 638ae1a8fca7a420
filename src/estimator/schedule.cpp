#include "estimator/schedule.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "estimator/dpm.hpp"
#include "util/error.hpp"
#include "util/table.hpp"

namespace memstress::estimator {

std::vector<TestLeg> standard_legs() {
  return {
      {"VLV 1.0 V / 10 MHz", {1.0, 100e-9}, 11},
      {"Vmin 1.65 V / 40 MHz", {1.65, 25e-9}, 11},
      {"Vnom 1.8 V / 40 MHz", {1.8, 25e-9}, 11},
      {"Vmax 1.95 V / 40 MHz", {1.95, 25e-9}, 11},
      {"at-speed 1.8 V / 67 MHz", {1.8, 15e-9}, 11},
  };
}

std::string Schedule::describe() const {
  std::ostringstream out;
  out << "[";
  for (std::size_t i = 0; i < legs.size(); ++i) {
    if (i) out << " + ";
    out << legs[i].name;
  }
  out << "] escapes " << fmt_percent(escape_fraction) << "% of defects, "
      << fmt_fixed(dpm, 0) << " DPM, " << fmt_time(test_time_per_cell)
      << "/cell";
  return out.str();
}

namespace {

/// Escapes per leg subset: entry S counts the sampled defects that no leg in
/// bitmask S (bit i = legs[i]) catches. The spec.monte_carlo_defects defects
/// are drawn once from Rng(spec.seed), and one detected_mask call per defect
/// gives the mask of the legs that catch it. A subset-sum transform over the
/// histogram of those 2^k masks then counts, per subset, the defects whose
/// mask lies inside the subset's complement: O(k * 2^k) after the draws,
/// whatever the sample size.
std::vector<int> subset_escapes(const std::vector<TestLeg>& legs,
                                const DetectabilityDb& db,
                                const defects::DefectSampler& sampler,
                                const ScheduleSpec& spec) {
  require(spec.monte_carlo_defects > 0, "escape_fraction: need samples");
  const std::size_t k = legs.size();
  std::vector<sram::StressPoint> conditions;
  for (const TestLeg& leg : legs) conditions.push_back(leg.at);
  std::vector<int> within(std::size_t{1} << k, 0);
  Rng rng(spec.seed);
  for (int i = 0; i < spec.monte_carlo_defects; ++i)
    ++within[db.detected_mask(sampler.sample(rng), conditions)];
  // within[S] becomes the number of defects whose mask is a subset of S.
  for (std::size_t bit = 0; bit < k; ++bit)
    for (std::size_t s = 0; s < within.size(); ++s)
      if (s & (std::size_t{1} << bit))
        within[s] += within[s ^ (std::size_t{1} << bit)];
  // The complement of S is full ^ S == full - S, so reversing the array
  // indexes escapes by S itself.
  std::reverse(within.begin(), within.end());
  return within;
}

/// The subset of `candidates` picked by bitmask `mask`, with `escapes` of
/// the sampled defects getting past it.
Schedule subset_schedule(const std::vector<TestLeg>& candidates,
                         std::size_t mask, int escapes,
                         const ScheduleSpec& spec) {
  Schedule schedule;
  for (std::size_t i = 0; i < candidates.size(); ++i)
    if (mask & (std::size_t{1} << i)) schedule.legs.push_back(candidates[i]);
  schedule.escape_fraction =
      static_cast<double>(escapes) / spec.monte_carlo_defects;
  // Williams-Brown with the *defect* coverage implied by the escapes.
  schedule.dpm = dpm(spec.yield, 1.0 - schedule.escape_fraction);
  for (const auto& leg : schedule.legs)
    schedule.test_time_per_cell += leg.time_per_cell();
  return schedule;
}

}  // namespace

double escape_fraction(const std::vector<TestLeg>& legs,
                       const DetectabilityDb& db,
                       const defects::DefectSampler& sampler,
                       const ScheduleSpec& spec) {
  require(legs.size() <= 16, "escape_fraction: at most 16 legs");
  return static_cast<double>(subset_escapes(legs, db, sampler, spec).back()) /
         spec.monte_carlo_defects;
}

Schedule optimize_schedule(const std::vector<TestLeg>& candidates,
                           const DetectabilityDb& db,
                           const defects::DefectSampler& sampler,
                           const ScheduleSpec& spec) {
  require(!candidates.empty() && candidates.size() <= 16,
          "optimize_schedule: 1..16 candidate legs");
  const std::vector<int> escapes =
      subset_escapes(candidates, db, sampler, spec);
  Schedule best_meeting;
  Schedule best_overall;
  bool have_meeting = false;
  bool have_any = false;
  for (std::size_t mask = 1; mask < escapes.size(); ++mask) {
    const Schedule schedule =
        subset_schedule(candidates, mask, escapes[mask], spec);
    if (!have_any || schedule.dpm < best_overall.dpm ||
        (schedule.dpm == best_overall.dpm &&
         schedule.test_time_per_cell < best_overall.test_time_per_cell)) {
      best_overall = schedule;
      have_any = true;
    }
    if (schedule.dpm <= spec.target_dpm &&
        (!have_meeting ||
         schedule.test_time_per_cell < best_meeting.test_time_per_cell)) {
      best_meeting = schedule;
      have_meeting = true;
    }
  }
  return have_meeting ? best_meeting : best_overall;
}

std::vector<Schedule> schedule_tradeoff(const std::vector<TestLeg>& candidates,
                                        const DetectabilityDb& db,
                                        const defects::DefectSampler& sampler,
                                        const ScheduleSpec& spec) {
  require(!candidates.empty() && candidates.size() <= 16,
          "schedule_tradeoff: 1..16 candidate legs");
  const std::vector<int> escapes =
      subset_escapes(candidates, db, sampler, spec);
  std::vector<Schedule> all;
  for (std::size_t mask = 1; mask < escapes.size(); ++mask)
    all.push_back(subset_schedule(candidates, mask, escapes[mask], spec));
  std::sort(all.begin(), all.end(), [](const Schedule& a, const Schedule& b) {
    return a.test_time_per_cell < b.test_time_per_cell;
  });
  return all;
}

}  // namespace memstress::estimator
