#include "estimator/schedule.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "estimator/dpm.hpp"
#include "layout/sram_layout.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace memstress::estimator {
namespace {

using defects::DefectKind;
using layout::BridgeCategory;
using layout::OpenCategory;

/// Synthetic detectability: VLV catches all bridges, Vmax all opens,
/// nothing else catches anything.
DetectabilityDb split_db() {
  std::vector<DbEntry> entries;
  auto add = [&entries](DefectKind kind, int category, auto&& detector) {
    for (const double vdd : {1.0, 1.65, 1.8, 1.95})
      for (const double period : {100e-9, 25e-9, 15e-9}) {
        DbEntry e;
        e.kind = kind;
        e.category = category;
        e.resistance = 1e4;
        e.vdd = vdd;
        e.period = period;
        e.detected = detector(vdd, period);
        entries.push_back(e);
      }
  };
  for (int cat = 0; cat <= static_cast<int>(BridgeCategory::Other); ++cat)
    add(DefectKind::Bridge, cat, [](double vdd, double) { return vdd < 1.2; });
  for (int cat = 0; cat <= static_cast<int>(OpenCategory::Other); ++cat)
    add(DefectKind::Open, cat, [](double vdd, double) { return vdd > 1.9; });
  return DetectabilityDb(std::move(entries));
}

defects::DefectSampler make_sampler(double bridge_fraction) {
  const auto model = layout::generate_sram_layout(8, 8);
  sram::BlockSpec block;
  block.rows = 2;
  block.cols = 1;
  defects::FabModel fab;
  fab.bridge_fraction = bridge_fraction;
  return defects::DefectSampler(
      defects::aggregate_sites(layout::extract_bridges(model),
                               layout::extract_opens(model)),
      fab, block);
}

TEST(StandardLegs, MatchThePaperSchedule) {
  const auto legs = standard_legs();
  ASSERT_EQ(legs.size(), 5u);
  EXPECT_DOUBLE_EQ(legs[0].at.vdd, 1.0);
  EXPECT_DOUBLE_EQ(legs[0].at.period, 100e-9);  // VLV at low frequency
  EXPECT_DOUBLE_EQ(legs[3].at.vdd, 1.95);
  EXPECT_DOUBLE_EQ(legs[3].at.period, 25e-9);   // Vmax at high frequency
}

TEST(TestLeg, TimeIsComplexityTimesPeriod)  {
  TestLeg leg{"x", {1.8, 25e-9}, 11};
  EXPECT_DOUBLE_EQ(leg.time_per_cell(), 11 * 25e-9);
}

TEST(EscapeFraction, ZeroLegsCatchNothing) {
  const auto db = split_db();
  const auto sampler = make_sampler(0.7);
  ScheduleSpec spec;
  spec.monte_carlo_defects = 500;
  EXPECT_DOUBLE_EQ(escape_fraction({}, db, sampler, spec), 1.0);
}

TEST(EscapeFraction, VlvCatchesTheBridgeFraction) {
  const auto db = split_db();
  const auto sampler = make_sampler(0.7);
  ScheduleSpec spec;
  spec.monte_carlo_defects = 4000;
  const std::vector<TestLeg> vlv_only{standard_legs()[0]};
  // VLV catches all bridges (70%): escapes ~30%.
  EXPECT_NEAR(escape_fraction(vlv_only, db, sampler, spec), 0.3, 0.03);
}

TEST(EscapeFraction, VlvPlusVmaxCatchesEverything) {
  const auto db = split_db();
  const auto sampler = make_sampler(0.7);
  ScheduleSpec spec;
  spec.monte_carlo_defects = 2000;
  const std::vector<TestLeg> both{standard_legs()[0], standard_legs()[3]};
  EXPECT_DOUBLE_EQ(escape_fraction(both, db, sampler, spec), 0.0);
}

TEST(OptimizeSchedule, PicksTheCheapestMeetingSchedule) {
  const auto db = split_db();
  const auto sampler = make_sampler(0.7);
  ScheduleSpec spec;
  spec.monte_carlo_defects = 2000;
  spec.target_dpm = 1.0;  // essentially zero escapes required
  const Schedule best = optimize_schedule(standard_legs(), db, sampler, spec);
  // In the split world only VLV + Vmax reach zero escapes; the optimizer
  // must pick exactly those two (other legs only add time).
  ASSERT_EQ(best.legs.size(), 2u);
  EXPECT_DOUBLE_EQ(best.legs[0].at.vdd, 1.0);
  EXPECT_DOUBLE_EQ(best.legs[1].at.vdd, 1.95);
  EXPECT_LE(best.dpm, 1.0);
}

TEST(OptimizeSchedule, FallsBackToBestWhenTargetUnreachable) {
  // A DB in which nothing is ever detected.
  std::vector<DbEntry> entries;
  for (int cat = 0; cat <= static_cast<int>(BridgeCategory::Other); ++cat)
    for (const double vdd : {1.0, 1.65, 1.8, 1.95})
      for (const double period : {100e-9, 25e-9, 15e-9}) {
        DbEntry e;
        e.kind = DefectKind::Bridge;
        e.category = cat;
        e.resistance = 1e4;
        e.vdd = vdd;
        e.period = period;
        e.detected = false;
        entries.push_back(e);
      }
  for (int cat = 0; cat <= static_cast<int>(OpenCategory::Other); ++cat)
    for (const double vdd : {1.0, 1.65, 1.8, 1.95})
      for (const double period : {100e-9, 25e-9, 15e-9}) {
        DbEntry e;
        e.kind = DefectKind::Open;
        e.category = cat;
        e.resistance = 1e4;
        e.vdd = vdd;
        e.period = period;
        e.detected = false;
        entries.push_back(e);
      }
  const DetectabilityDb db(std::move(entries));
  const auto sampler = make_sampler(0.7);
  ScheduleSpec spec;
  spec.monte_carlo_defects = 200;
  spec.target_dpm = 1.0;
  const Schedule best = optimize_schedule(standard_legs(), db, sampler, spec);
  EXPECT_DOUBLE_EQ(best.escape_fraction, 1.0);
  EXPECT_GT(best.dpm, spec.target_dpm);
}

TEST(ScheduleTradeoff, EnumeratesAllSubsetsSortedByTime) {
  const auto db = split_db();
  const auto sampler = make_sampler(0.7);
  ScheduleSpec spec;
  spec.monte_carlo_defects = 200;
  const auto curve = schedule_tradeoff(standard_legs(), db, sampler, spec);
  EXPECT_EQ(curve.size(), 31u);  // 2^5 - 1
  for (std::size_t i = 1; i < curve.size(); ++i)
    EXPECT_GE(curve[i].test_time_per_cell, curve[i - 1].test_time_per_cell);
}

TEST(Schedule, DescribeMentionsLegsAndDpm) {
  Schedule s;
  s.legs = {standard_legs()[0]};
  s.escape_fraction = 0.25;
  s.dpm = 1234.0;
  s.test_time_per_cell = 1.1e-6;
  const std::string text = s.describe();
  EXPECT_NE(text.find("VLV"), std::string::npos);
  EXPECT_NE(text.find("1234"), std::string::npos);
}

TEST(OptimizeSchedule, ValidatesInput) {
  const auto db = split_db();
  const auto sampler = make_sampler(0.7);
  ScheduleSpec spec;
  EXPECT_THROW(optimize_schedule({}, db, sampler, spec), Error);
}

TEST(EscapeFraction, MoreThanSixteenLegsThrow) {
  const auto db = split_db();
  const auto sampler = make_sampler(0.7);
  ScheduleSpec spec;
  spec.monte_carlo_defects = 10;
  const std::vector<TestLeg> legs(17, standard_legs()[0]);
  EXPECT_THROW(escape_fraction(legs, db, sampler, spec), Error);
}

// The searches sample their defects once and count every subset's escapes
// from per-defect leg masks. The per-subset re-sampling search below is the
// behavioural reference they must reproduce exactly: bit-equal escape
// fractions and DPM, and the same legs in the same order.

double reference_escape_fraction(const std::vector<TestLeg>& legs,
                                 const DetectabilityDb& db,
                                 const defects::DefectSampler& sampler,
                                 const ScheduleSpec& spec) {
  require(spec.monte_carlo_defects > 0, "escape_fraction: need samples");
  Rng rng(spec.seed);
  int escapes = 0;
  for (int i = 0; i < spec.monte_carlo_defects; ++i) {
    const defects::Defect defect = sampler.sample(rng);
    bool caught = false;
    for (const auto& leg : legs) {
      if (db.detected(defect, leg.at)) {
        caught = true;
        break;
      }
    }
    if (!caught) ++escapes;
  }
  return static_cast<double>(escapes) / spec.monte_carlo_defects;
}

Schedule reference_evaluate_subset(const std::vector<TestLeg>& legs,
                                   const DetectabilityDb& db,
                                   const defects::DefectSampler& sampler,
                                   const ScheduleSpec& spec) {
  Schedule schedule;
  schedule.legs = legs;
  schedule.escape_fraction = reference_escape_fraction(legs, db, sampler, spec);
  // Williams-Brown with the *defect* coverage implied by the escapes.
  schedule.dpm = dpm(spec.yield, 1.0 - schedule.escape_fraction);
  for (const auto& leg : legs) schedule.test_time_per_cell += leg.time_per_cell();
  return schedule;
}

Schedule reference_optimize_schedule(const std::vector<TestLeg>& candidates,
                                     const DetectabilityDb& db,
                                     const defects::DefectSampler& sampler,
                                     const ScheduleSpec& spec) {
  require(!candidates.empty() && candidates.size() <= 16,
          "optimize_schedule: 1..16 candidate legs");
  Schedule best_meeting;
  Schedule best_overall;
  bool have_meeting = false;
  bool have_any = false;
  for (unsigned mask = 1; mask < (1u << candidates.size()); ++mask) {
    std::vector<TestLeg> legs;
    for (std::size_t i = 0; i < candidates.size(); ++i)
      if (mask & (1u << i)) legs.push_back(candidates[i]);
    const Schedule schedule = reference_evaluate_subset(legs, db, sampler, spec);
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

std::vector<Schedule> reference_schedule_tradeoff(
    const std::vector<TestLeg>& candidates, const DetectabilityDb& db,
    const defects::DefectSampler& sampler, const ScheduleSpec& spec) {
  require(!candidates.empty() && candidates.size() <= 16,
          "schedule_tradeoff: 1..16 candidate legs");
  std::vector<Schedule> all;
  for (unsigned mask = 1; mask < (1u << candidates.size()); ++mask) {
    std::vector<TestLeg> legs;
    for (std::size_t i = 0; i < candidates.size(); ++i)
      if (mask & (1u << i)) legs.push_back(candidates[i]);
    all.push_back(reference_evaluate_subset(legs, db, sampler, spec));
  }
  std::sort(all.begin(), all.end(), [](const Schedule& a, const Schedule& b) {
    return a.test_time_per_cell < b.test_time_per_cell;
  });
  return all;
}

/// Every (kind, category) the sampler can draw, at the four Vdd corners and
/// three periods, with three random resistances (some with a breakdown
/// voltage) and random verdicts.
DetectabilityDb random_schedule_db(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<DbEntry> entries;
  const auto add = [&](DefectKind kind, int category) {
    for (const double vdd : {1.0, 1.65, 1.8, 1.95})
      for (const double period : {100e-9, 25e-9, 15e-9})
        for (int i = 0; i < 3; ++i) {
          DbEntry e;
          e.kind = kind;
          e.category = category;
          e.resistance = rng.log_uniform(10.0, 1e8);
          e.vbd = rng.chance(0.3) ? rng.uniform(0.8, 2.6) : 0.0;
          e.vdd = vdd;
          e.period = period;
          e.detected = rng.chance(0.4);
          entries.push_back(e);
        }
  };
  for (int cat = 0; cat <= static_cast<int>(BridgeCategory::Other); ++cat)
    add(DefectKind::Bridge, cat);
  for (int cat = 0; cat <= static_cast<int>(OpenCategory::Other); ++cat)
    add(DefectKind::Open, cat);
  return DetectabilityDb(std::move(entries));
}

/// Six candidates: four standard legs, an off-grid leg, and a duplicate of
/// the first leg as the third, so every list of three or more repeats one.
std::vector<TestLeg> candidate_pool() {
  const auto legs = standard_legs();
  return {legs[0], legs[3], legs[0], {"off-grid 1.3 V / 50 ns", {1.3, 50e-9}, 9},
          legs[4], legs[1]};
}

void expect_same_schedule(const Schedule& got, const Schedule& want) {
  ASSERT_EQ(got.legs.size(), want.legs.size());
  for (std::size_t i = 0; i < got.legs.size(); ++i) {
    EXPECT_EQ(got.legs[i].name, want.legs[i].name) << "leg " << i;
    EXPECT_EQ(got.legs[i].at.vdd, want.legs[i].at.vdd) << "leg " << i;
    EXPECT_EQ(got.legs[i].at.period, want.legs[i].at.period) << "leg " << i;
  }
  EXPECT_EQ(got.escape_fraction, want.escape_fraction);
  EXPECT_EQ(got.dpm, want.dpm);
  EXPECT_EQ(got.test_time_per_cell, want.test_time_per_cell);
}

void expect_matches_reference(const DetectabilityDb& db, const char* label) {
  const auto sampler = make_sampler(0.6);
  const std::vector<TestLeg> pool = candidate_pool();
  for (std::size_t k = 1; k <= pool.size(); ++k) {
    SCOPED_TRACE(std::string(label) + ", k=" + std::to_string(k));
    const std::vector<TestLeg> candidates(pool.begin(), pool.begin() + k);
    ScheduleSpec spec;
    spec.monte_carlo_defects = 400;
    spec.seed = 100 + k;
    spec.yield = 0.91;

    const auto curve = schedule_tradeoff(candidates, db, sampler, spec);
    const auto want = reference_schedule_tradeoff(candidates, db, sampler, spec);
    ASSERT_EQ(curve.size(), want.size());
    for (std::size_t i = 0; i < curve.size(); ++i) {
      SCOPED_TRACE("curve point " + std::to_string(i));
      expect_same_schedule(curve[i], want[i]);
    }

    EXPECT_EQ(escape_fraction(candidates, db, sampler, spec),
              reference_escape_fraction(candidates, db, sampler, spec));

    // A target between the curve's extremes takes the "meets the target"
    // branch; an unreachable one falls back to the lowest DPM.
    double lowest = want.front().dpm;
    for (const Schedule& s : want) lowest = std::min(lowest, s.dpm);
    for (const double target : {lowest * 1.05 + 1.0, lowest / 2.0 - 1.0}) {
      spec.target_dpm = target;
      expect_same_schedule(optimize_schedule(candidates, db, sampler, spec),
                           reference_optimize_schedule(candidates, db, sampler,
                                                       spec));
    }
  }
}

TEST(ScheduleReference, SplitDbMatchesPerSubsetSampling) {
  expect_matches_reference(split_db(), "split_db");
}

TEST(ScheduleReference, RandomDbMatchesPerSubsetSampling) {
  for (const std::uint64_t seed : {5u, 6u})
    expect_matches_reference(random_schedule_db(seed),
                             ("random_db seed " + std::to_string(seed)).c_str());
}

}  // namespace
}  // namespace memstress::estimator
