// Exact pins for the batched analog kernel's operation counts.
//
// Newton iterations, kernel refactorizations, avoided refactorizations, lane
// ejections and scalar factorizations are properties of the workload, not of
// the schedule, so they are pinned exactly — at one thread and at four. A
// change that moves any of them changed the kernel's algorithm (the order
// lanes are solved in, a trust-ladder threshold, the ejection policy) and
// has to say so; a change that moves them only at four threads broke
// scheduling-freedom.
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
/// MATS+ stimulus to keep it around a second. It ejects lanes and falls
/// back to the scalar ladder, so every pinned counter is nonzero.
estimator::CharacterizeSpec tiny_spec(int threads) {
  estimator::CharacterizeSpec spec;
  spec.block.rows = 2;
  spec.block.cols = 1;
  spec.test = march::mats_plus();
  spec.vdds = {1.0};
  spec.periods = {100e-9};
  spec.bridge_resistances = {1e3, 30e3, 90e3};
  spec.open_resistances = {3e4, 1e6};
  spec.gox_vbds = {1.7, 1.925};
  spec.solver = analog::SolverMode::Batched;
  spec.threads = threads;
  return spec;
}

std::map<std::string, long long> counts_at(int threads) {
  const bool ambient = metrics::enabled();
  metrics::set_enabled(true);
  metrics::reset();
  estimator::characterize(tiny_spec(threads));
  const metrics::RunReport report = metrics::collect();
  metrics::reset();
  metrics::set_enabled(ambient);
  std::map<std::string, long long> counts;
  for (const char* name : kPinned) counts[name] = 0;
  for (const auto& c : report.counters)
    if (counts.count(c.name) != 0) counts[c.name] = c.value;
  return counts;
}

TEST(GoldenOpCounts, BatchedKernelCountsArePinnedAtOneAndFourThreads) {
  // clang-format off
  const std::map<std::string, long long> golden{
      {"analog.lane_ejections", 15},
      {"analog.newton_iterations", 231294},
      {"analog.refactor_avoided", 208405},
      {"analog.refactorizations", 21890},
      {"analog.scalar_factorizations", 999},
  };
  // clang-format on
  for (const int threads : {1, 4}) {
    const std::map<std::string, long long> counts = counts_at(threads);
    if (std::getenv("MEMSTRESS_GOLDEN_DUMP") != nullptr) {
      std::printf("  // threads=%d\n", threads);
      for (const auto& [name, value] : counts)
        std::printf("      {\"%s\", %lld},\n", name.c_str(), value);
      continue;
    }
    EXPECT_EQ(counts, golden) << "threads=" << threads;
  }
  if (std::getenv("MEMSTRESS_GOLDEN_DUMP") != nullptr)
    GTEST_SKIP() << "dump mode: counts printed, assertions skipped";
}

}  // namespace
}  // namespace memstress
