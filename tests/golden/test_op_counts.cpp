// Exact pins for the analog solver's operation counts, in both solver modes.
//
// Newton iterations, kernel refactorizations, avoided refactorizations, lane
// ejections and scalar factorizations are properties of the workload, not of
// the schedule, so they are pinned exactly — at one thread and at four. A
// change that moves any of them changed the solver's algorithm (the order
// lanes are solved in, a trust-ladder threshold, the ejection policy) and
// has to say so; a change that moves them only at four threads broke
// scheduling-freedom. The exact reference path never touches the kernel, so
// its kernel counters are pinned at zero.
//
// The constants were harvested from a clean build by running this binary
// with MEMSTRESS_GOLDEN_DUMP=1, which prints the counts (and skips the
// assertions). Re-run it the same way after a deliberate kernel change and
// paste the block in.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "analog/batch.hpp"
#include "estimator/detectability.hpp"
#include "march/library.hpp"
#include "util/metrics.hpp"

namespace memstress {
namespace {

const char* const kPinned[] = {
    "analog.newton_iterations", "analog.refactorizations",
    "analog.refactor_avoided",  "analog.lane_ejections",
    "analog.scalar_factorizations",
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

std::map<std::string, long long> counts_at(analog::SolverMode mode,
                                           int threads) {
  const bool ambient = metrics::enabled();
  metrics::set_enabled(true);
  metrics::reset();
  estimator::characterize(tiny_spec(mode, threads));
  const metrics::RunReport report = metrics::collect();
  metrics::reset();
  metrics::set_enabled(ambient);
  std::map<std::string, long long> counts;
  for (const char* name : kPinned) counts[name] = 0;
  for (const auto& c : report.counters)
    if (counts.count(c.name) != 0) counts[c.name] = c.value;
  return counts;
}

/// Expect `golden` at one and at four threads; with MEMSTRESS_GOLDEN_DUMP
/// set, print the counts and skip instead.
void expect_pinned(analog::SolverMode mode,
                   const std::map<std::string, long long>& golden) {
  for (const int threads : {1, 4}) {
    const std::map<std::string, long long> counts = counts_at(mode, threads);
    if (std::getenv("MEMSTRESS_GOLDEN_DUMP") != nullptr) {
      std::printf("  // %s, threads=%d\n", analog::solver_mode_name(mode),
                  threads);
      for (const auto& [name, value] : counts)
        std::printf("      {\"%s\", %lld},\n", name.c_str(), value);
      continue;
    }
    EXPECT_EQ(counts, golden) << "threads=" << threads;
  }
  if (std::getenv("MEMSTRESS_GOLDEN_DUMP") != nullptr)
    GTEST_SKIP() << "dump mode: counts printed, assertions skipped";
}

TEST(GoldenOpCounts, BatchedKernelCountsArePinnedAtOneAndFourThreads) {
  // clang-format off
  expect_pinned(analog::SolverMode::Batched, {
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
  expect_pinned(analog::SolverMode::Exact, {
      {"analog.lane_ejections", 0},
      {"analog.newton_iterations", 155761},
      {"analog.refactor_avoided", 0},
      {"analog.refactorizations", 0},
      {"analog.scalar_factorizations", 155761},
  });
  // clang-format on
}

}  // namespace
}  // namespace memstress
