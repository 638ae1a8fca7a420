// Exact pins for operation counts: the analog solver's in both solver modes,
// and the yield path's (study plus schedule search).
//
// Newton iterations, kernel refactorizations, avoided refactorizations, lane
// ejections and scalar factorizations are properties of the workload, not of
// the schedule, so they are pinned exactly — at one thread and at four. A
// change that moves any of them changed the solver's algorithm (the order
// lanes are solved in, a trust-ladder threshold, the ejection policy) and
// has to say so; a change that moves them only at four threads broke
// scheduling-freedom. The exact reference path never touches the kernel, so
// its kernel counters are pinned at zero. The yield path's DB lookups,
// sampled defects, defective devices and parallel_for tasks are pinned the
// same way: they change only when the study or the schedule search changes
// what it looks up or draws. Every sampled defect costs five lookups, one
// per stress corner, even when Vmin already caught it: the study's 935
// defects x 5 plus the trade-off curve's 500 x 5 make 7175. The study fans
// out over blocks of consecutive devices, at most 256 of ceil(n / 256)
// devices, so its parallel_for counts blocks, not devices: the 2,000-device
// study is 250 tasks at any thread count (it was 2,000, one per device,
// until the fan-out moved to blocks).
//
// The constants were harvested from a clean build by running this binary
// with MEMSTRESS_GOLDEN_DUMP=1, which prints the counts (and skips the
// assertions). Re-run it the same way after a deliberate change and paste
// the block in.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "analog/batch.hpp"
#include "estimator/detectability.hpp"
#include "estimator/schedule.hpp"
#include "layout/sram_layout.hpp"
#include "march/library.hpp"
#include "study/study.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

namespace memstress {
namespace {

const std::vector<const char*> kKernelPinned = {
    "analog.newton_iterations", "analog.refactorizations",
    "analog.refactor_avoided",  "analog.lane_ejections",
    "analog.scalar_factorizations",
};

const std::vector<const char*> kYieldPinned = {
    "estimator.db_lookups", "study.defects", "study.defective_devices",
    "parallel.tasks",
};

/// Tiny sram6t grid at the VLV corner: three-lane bridge sweeps (one
/// resistance inside the contested band, one at each end) so lanes can
/// share factorizations, two-lane open and breakdown sweeps, and the short
/// MATS+ stimulus to keep it around a second. Batched, it ejects lanes and
/// falls back to the scalar ladder, so every pinned counter is nonzero.
estimator::CharacterizeSpec tiny_spec(analog::SolverMode mode, int threads) {
  estimator::CharacterizeSpec spec;
  spec.block.rows = 2;
  spec.block.cols = 1;
  spec.test = march::mats_plus();
  spec.vdds = {1.0};
  spec.periods = {100e-9};
  spec.bridge_resistances = {1e3, 30e3, 90e3};
  spec.open_resistances = {3e4, 1e6};
  spec.gox_vbds = {1.7, 1.925};
  spec.solver = mode;
  spec.threads = threads;
  return spec;
}

/// A seeded random database over every (kind, category) the sampler draws:
/// the four Vdd corners and three periods, with three random resistances
/// (some with a breakdown voltage) and random verdicts per condition.
estimator::DetectabilityDb yield_db() {
  Rng rng(2005);
  std::vector<estimator::DbEntry> entries;
  const auto add = [&](defects::DefectKind kind, int category) {
    for (const double vdd : {1.0, 1.65, 1.8, 1.95})
      for (const double period : {100e-9, 25e-9, 15e-9})
        for (int i = 0; i < 3; ++i) {
          estimator::DbEntry e;
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
  for (int cat = 0; cat <= static_cast<int>(layout::BridgeCategory::Other);
       ++cat)
    add(defects::DefectKind::Bridge, cat);
  for (int cat = 0; cat <= static_cast<int>(layout::OpenCategory::Other);
       ++cat)
    add(defects::DefectKind::Open, cat);
  return estimator::DetectabilityDb(std::move(entries));
}

/// A 2,000-device study (about 0.46 defects per device) plus the standard
/// five-leg trade-off curve over 500 sampled defects.
void run_yield_path(int threads) {
  const estimator::DetectabilityDb db = yield_db();
  const auto model = layout::generate_sram_layout(8, 8);
  sram::BlockSpec block;
  block.rows = 2;
  block.cols = 1;
  defects::FabModel fab;
  fab.defect_density_per_um2 = 4.0e-7;
  const defects::DefectSampler sampler(
      defects::aggregate_sites(layout::extract_bridges(model),
                               layout::extract_opens(model)),
      fab, block);
  study::StudyConfig config;
  config.device_count = 2000;
  config.seed = 17;
  config.threads = threads;
  study::run_study(config, db, sampler);
  estimator::ScheduleSpec spec;
  spec.monte_carlo_defects = 500;
  spec.seed = 3;
  estimator::schedule_tradeoff(estimator::standard_legs(), db, sampler, spec);
}

std::map<std::string, long long> counts_of(
    const std::vector<const char*>& names, const std::function<void()>& run) {
  const bool ambient = metrics::enabled();
  metrics::set_enabled(true);
  metrics::reset();
  run();
  const metrics::RunReport report = metrics::collect();
  metrics::reset();
  metrics::set_enabled(ambient);
  std::map<std::string, long long> counts;
  for (const char* name : names) counts[name] = 0;
  for (const auto& c : report.counters)
    if (counts.count(c.name) != 0) counts[c.name] = c.value;
  return counts;
}

/// Expect `golden` from `counts_at(threads)` at one and at four threads;
/// with MEMSTRESS_GOLDEN_DUMP set, print the counts and skip instead.
void expect_pinned(
    const char* label, const std::map<std::string, long long>& golden,
    const std::function<std::map<std::string, long long>(int)>& counts_at) {
  for (const int threads : {1, 4}) {
    const std::map<std::string, long long> counts = counts_at(threads);
    if (std::getenv("MEMSTRESS_GOLDEN_DUMP") != nullptr) {
      std::printf("  // %s, threads=%d\n", label, threads);
      for (const auto& [name, value] : counts)
        std::printf("      {\"%s\", %lld},\n", name.c_str(), value);
      continue;
    }
    EXPECT_EQ(counts, golden) << "threads=" << threads;
  }
  if (std::getenv("MEMSTRESS_GOLDEN_DUMP") != nullptr)
    GTEST_SKIP() << "dump mode: counts printed, assertions skipped";
}

/// The kernel pins for one solver mode.
void expect_kernel_pinned(analog::SolverMode mode,
                          const std::map<std::string, long long>& golden) {
  expect_pinned(analog::solver_mode_name(mode), golden, [mode](int threads) {
    return counts_of(kKernelPinned, [&] {
      estimator::characterize(tiny_spec(mode, threads));
    });
  });
}

TEST(GoldenOpCounts, BatchedKernelCountsArePinnedAtOneAndFourThreads) {
  // clang-format off
  expect_kernel_pinned(analog::SolverMode::Batched, {
      {"analog.lane_ejections", 15},
      {"analog.newton_iterations", 231294},
      {"analog.refactor_avoided", 208405},
      {"analog.refactorizations", 21890},
      {"analog.scalar_factorizations", 999},
  });
  // clang-format on
}

TEST(GoldenOpCounts, ExactCountsArePinnedAtOneAndFourThreads) {
  // clang-format off
  expect_kernel_pinned(analog::SolverMode::Exact, {
      {"analog.lane_ejections", 0},
      {"analog.newton_iterations", 155761},
      {"analog.refactor_avoided", 0},
      {"analog.refactorizations", 0},
      {"analog.scalar_factorizations", 155761},
  });
  // clang-format on
}

TEST(GoldenOpCounts, YieldPathCountsArePinnedAtOneAndFourThreads) {
  // clang-format off
  expect_pinned("yield path", {
      {"estimator.db_lookups", 7175},
      {"parallel.tasks", 250},
      {"study.defective_devices", 742},
      {"study.defects", 935},
  }, [](int threads) {
    return counts_of(kYieldPinned, [threads] { run_yield_path(threads); });
  });
  // clang-format on
}

}  // namespace
}  // namespace memstress
