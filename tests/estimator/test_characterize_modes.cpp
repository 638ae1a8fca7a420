// Solver-mode equivalence contract for estimator::characterize(): the
// exact and batched backends — at any thread count — must produce
// byte-identical CSVs. The solver knob changes how the grid is
// integrated, never what it reports; a detected/escape flip between modes
// is a correctness bug, not an accuracy tradeoff.
#include <gtest/gtest.h>

#include <string>

#include "analog/batch.hpp"
#include "estimator/detectability.hpp"
#include "march/library.hpp"
#include "util/error.hpp"

namespace memstress::estimator {
namespace {

CharacterizeSpec tiny_grid() {
  CharacterizeSpec spec;
  spec.block.rows = 2;
  spec.block.cols = 1;
  spec.test = march::test_11n();
  // One stress corner per axis band keeps this in tier-1 time while still
  // exercising bridges, opens and the breakdown sweep in one run.
  spec.vdds = {1.8};
  spec.periods = {100e-9};
  spec.bridge_resistances = {1e3, 30e3};
  spec.open_resistances = {3e4};
  spec.gox_vbds = {1.925};
  return spec;
}

TEST(CharacterizeModesDeterminism, CsvIdenticalAcrossSolversAndThreads) {
  CharacterizeSpec spec = tiny_grid();
  spec.solver = analog::SolverMode::Exact;
  spec.threads = 1;
  const std::string reference = characterize(spec).to_csv();
  ASSERT_FALSE(reference.empty());

  for (const auto mode :
       {analog::SolverMode::Exact, analog::SolverMode::Batched}) {
    for (const int threads : {1, 8}) {
      if (mode == analog::SolverMode::Exact && threads == 1) continue;
      CharacterizeSpec run = tiny_grid();
      run.solver = mode;
      run.threads = threads;
      EXPECT_EQ(characterize(run).to_csv(), reference)
          << "mode=" << analog::solver_mode_name(mode)
          << " threads=" << threads;
    }
  }
}

TEST(CharacterizeModesDeterminism, SolverModeParsingRoundTrips) {
  EXPECT_EQ(analog::parse_solver_mode("exact"), analog::SolverMode::Exact);
  EXPECT_EQ(analog::parse_solver_mode("batched"), analog::SolverMode::Batched);
  EXPECT_THROW(analog::parse_solver_mode("incremental"), Error);
  EXPECT_THROW(analog::parse_solver_mode("fast"), Error);
  EXPECT_STREQ(analog::solver_mode_name(analog::SolverMode::Batched),
               "batched");
}

TEST(CharacterizeModesDeterminism, FingerprintIgnoresSolverMode) {
  // The solver is an execution knob: caches written under one mode must
  // stay valid under another, so the fingerprint may not include it.
  CharacterizeSpec a = tiny_grid();
  a.solver = analog::SolverMode::Exact;
  CharacterizeSpec b = tiny_grid();
  b.solver = analog::SolverMode::Batched;
  EXPECT_EQ(spec_fingerprint(a), spec_fingerprint(b));
}

}  // namespace
}  // namespace memstress::estimator
