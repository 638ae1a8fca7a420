// Unit tests for the TechnologyModel layer: name round-trips, the MTJ and
// undervolt closed-form physics (threshold positions and monotonic trends,
// not regression constants — those live in test_tech_golden.cpp), the MTJ
// fab model and sampler mode, and the per-technology default specs.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "defects/defect.hpp"
#include "defects/distributions.hpp"
#include "defects/sampler.hpp"
#include "march/library.hpp"
#include "tech/model.hpp"
#include "tech/stt_mram.hpp"
#include "tech/technology.hpp"
#include "tech/undervolt.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace memstress::tech {
namespace {

TEST(Technology, NamesRoundTripAndUnknownsThrow) {
  for (const auto technology :
       {Technology::Sram6T, Technology::SttMram, Technology::Undervolt})
    EXPECT_EQ(parse_technology(technology_name(technology)), technology);
  EXPECT_EQ(technology_name(Technology::SttMram), std::string("stt_mram"));
  EXPECT_THROW(parse_technology("sram"), Error);
  EXPECT_THROW(parse_technology(""), Error);
  EXPECT_THROW(parse_technology("STT_MRAM"), Error);
}

TEST(Technology, ModelForReturnsTheMatchingSingleton) {
  for (const auto technology :
       {Technology::Sram6T, Technology::SttMram, Technology::Undervolt}) {
    const TechnologyModel& model = model_for(technology);
    // Stateless singletons: the same reference every time.
    EXPECT_EQ(&model, &model_for(technology));
  }
}

TEST(Technology, ContextGridIsTheModelGrid) {
  // characterize() commits by the context's grid, so it must be the grid
  // build_grid() enumerates — point for point, in both solver modes.
  for (const auto technology :
       {Technology::Sram6T, Technology::SttMram, Technology::Undervolt}) {
    const estimator::CharacterizeSpec spec =
        default_characterize_spec(technology);
    const TechnologyModel& model = model_for(technology);
    const std::vector<estimator::GridPoint> expected = model.build_grid(spec);
    ASSERT_FALSE(expected.empty()) << technology_name(technology);
    for (const auto mode :
         {analog::SolverMode::Batched, analog::SolverMode::Exact}) {
      const std::unique_ptr<SweepContext> ctx = model.make_context(spec, mode);
      const std::vector<estimator::GridPoint>& grid = ctx->grid();
      ASSERT_EQ(grid.size(), expected.size()) << technology_name(technology);
      for (std::size_t i = 0; i < grid.size(); ++i) {
        const estimator::DbEntry& a = grid[i].entry;
        const estimator::DbEntry& b = expected[i].entry;
        EXPECT_EQ(a.kind, b.kind) << i;
        EXPECT_EQ(a.category, b.category) << i;
        EXPECT_EQ(a.resistance, b.resistance) << i;
        EXPECT_EQ(a.vbd, b.vbd) << i;
        EXPECT_EQ(a.vdd, b.vdd) << i;
        EXPECT_EQ(a.period, b.period) << i;
        EXPECT_EQ(a.detected, b.detected) << i;
        EXPECT_EQ(grid[i].defect.tag(), expected[i].defect.tag()) << i;
      }
    }
  }
}

TEST(Technology, DefaultSpecsCarryTheTechnologyConventions) {
  const estimator::CharacterizeSpec sram =
      default_characterize_spec(Technology::Sram6T);
  EXPECT_EQ(sram.technology, Technology::Sram6T);
  EXPECT_EQ(sram.test.name, "11N");

  const estimator::CharacterizeSpec stt =
      default_characterize_spec(Technology::SttMram);
  EXPECT_EQ(stt.technology, Technology::SttMram);
  EXPECT_EQ(stt.test.name, "Hammer15N");

  const estimator::CharacterizeSpec uv =
      default_characterize_spec(Technology::Undervolt);
  EXPECT_EQ(uv.technology, Technology::Undervolt);
  // The BER cliff is below VLV; the default axis must actually sweep it.
  ASSERT_FALSE(uv.vdds.empty());
  EXPECT_LT(uv.vdds.front(), 1.0);
  EXPECT_GT(uv.vdds.back(), 1.8);
}

// ---------------------------------------------------------------------------
// MTJ physics.

TEST(SttMramPhysics, DeltaTracksBarrierVolume) {
  const SttMramSpec spec;
  // Healthy junction: Delta is exactly nominal.
  EXPECT_DOUBLE_EQ(mtj_delta_eff(spec, spec.r_parallel), spec.delta_nominal);
  // Monotonically increasing in R_P (thicker barrier, more stable).
  double last = 0.0;
  for (const double r : spec.resistances) {
    const double delta = mtj_delta_eff(spec, r);
    EXPECT_GT(delta, last);
    last = delta;
  }
}

TEST(SttMramPhysics, RetentionFailsOnlyThinBarriers) {
  const SttMramSpec spec;
  // Pinholed barrier: unstable, flips during the pause at any supply.
  EXPECT_TRUE(mtj_retention_detected(spec, 1.0e3, 1.0));
  // Healthy junction: stable at every corner.
  EXPECT_FALSE(mtj_retention_detected(spec, spec.r_parallel, 1.0));
  EXPECT_FALSE(mtj_retention_detected(spec, spec.r_parallel, 1.95));
  // Higher standby bias tilts the barrier: detection at high vdd implies
  // detection at (equal or) lower stability, never the reverse.
  for (const double r : spec.resistances) {
    if (mtj_retention_detected(spec, r, 1.0)) {
      EXPECT_TRUE(mtj_retention_detected(spec, r, 1.95));
    }
  }
}

TEST(SttMramPhysics, TransitionFailsThickBarriersAtLowSupply) {
  const SttMramSpec spec;
  // Void contact / thick barrier: the VLV-level supply cannot push the
  // critical current.
  EXPECT_TRUE(mtj_transition_detected(spec, 1.2e4, 1.0, 100e-9));
  // Healthy junction writes fine everywhere.
  EXPECT_FALSE(mtj_transition_detected(spec, spec.r_parallel, 1.0, 100e-9));
  EXPECT_FALSE(mtj_transition_detected(spec, spec.r_parallel, 1.95, 100e-9));
  // Raising the supply rescues marginal writes: detected at 1.95 V implies
  // detected at 1.0 V.
  for (const double r : spec.resistances) {
    if (mtj_transition_detected(spec, r, 1.95, 100e-9)) {
      EXPECT_TRUE(mtj_transition_detected(spec, r, 1.0, 100e-9));
    }
  }
  // Shorter period = narrower write pulse = higher corrected critical
  // current: a faster test can only catch more write failures.
  for (const double r : spec.resistances) {
    if (mtj_transition_detected(spec, r, 1.0, 100e-9)) {
      EXPECT_TRUE(mtj_transition_detected(spec, r, 1.0, 15e-9));
    }
  }
}

TEST(SttMramPhysics, ReadDisturbNeedsTheHammer) {
  const SttMramSpec spec;
  // A thin-barrier junction disturbed by the 8-deep hammer...
  EXPECT_TRUE(mtj_read_disturb_detected(spec, 1.0e3, 1.8, 8));
  // ...is missed by a single read at the same corner only if its per-read
  // flip probability is below 1/2 — more reads never detect less.
  for (const double r : spec.resistances) {
    if (mtj_read_disturb_detected(spec, r, 1.8, 1)) {
      EXPECT_TRUE(mtj_read_disturb_detected(spec, r, 1.8, 8));
    }
  }
  // The healthy junction survives the hammer.
  EXPECT_FALSE(mtj_read_disturb_detected(spec, spec.r_parallel, 1.8, 8));
}

TEST(SttMramPhysics, HammerReadCountIsTheLongestReadRun) {
  EXPECT_EQ(hammer_read_count(march::march_hammer()), 8);
  // Hammer-free stimuli still make one disturb attempt per read.
  EXPECT_EQ(hammer_read_count(march::test_11n()), 1);
  EXPECT_EQ(hammer_read_count(march::mats_plus()), 1);
}

// ---------------------------------------------------------------------------
// Undervolt physics.

TEST(UndervoltPhysics, MarginCollapsesAtTheCliff) {
  const UndervoltSpec spec;
  EXPECT_DOUBLE_EQ(undervolt_healthy_margin(spec, spec.v_safe),
                   spec.margin_nominal);
  EXPECT_DOUBLE_EQ(undervolt_healthy_margin(spec, spec.v_cliff), 0.0);
  EXPECT_DOUBLE_EQ(undervolt_healthy_margin(spec, 0.3), 0.0);
  // Monotone in vdd across the cliff and above v_safe.
  double last = -1.0;
  for (const double vdd : {0.4, 0.55, 0.7, 0.9, 1.0, 1.4, 1.8}) {
    const double margin = undervolt_healthy_margin(spec, vdd);
    EXPECT_GE(margin, last);
    last = margin;
  }
}

TEST(UndervoltPhysics, BerIsAMonotoneErfcOfTheMargin) {
  const UndervoltSpec spec;
  EXPECT_DOUBLE_EQ(undervolt_ber(spec, 0.0), 0.5);
  EXPECT_LT(undervolt_ber(spec, spec.margin_nominal), 1e-6);
  EXPECT_GT(undervolt_ber(spec, 0.01), undervolt_ber(spec, 0.02));
}

TEST(UndervoltPhysics, HardBridgesDegradeMoreThanWeakOnes) {
  const UndervoltSpec spec;
  estimator::DbEntry entry;
  entry.kind = defects::DefectKind::Bridge;
  entry.category = 0;  // CellTrueFalse, severity 1.0
  entry.vdd = 1.0;
  entry.period = 100e-9;
  entry.resistance = 100.0;
  const double hard = undervolt_degradation(spec, entry);
  entry.resistance = 100e3;
  const double weak = undervolt_degradation(spec, entry);
  EXPECT_GT(hard, weak);
  EXPECT_GT(hard, 0.9);  // a dead short eats essentially the whole margin
  EXPECT_LT(weak, 0.1);
}

TEST(UndervoltPhysics, DetectionNeedsEnoughOperations) {
  const UndervoltSpec spec;
  estimator::DbEntry entry;
  entry.kind = defects::DefectKind::Bridge;
  entry.category = 0;
  entry.vdd = 0.9;  // below v_safe: margin already reduced
  entry.period = 100e-9;
  entry.resistance = 8e3;
  // The same physical BER crosses the expected-error threshold only when
  // the march applies enough operations.
  EXPECT_FALSE(undervolt_detected(spec, entry, 1.0));
  EXPECT_TRUE(undervolt_detected(spec, entry, 1e12));
}

// ---------------------------------------------------------------------------
// MTJ defect population.

TEST(MtjFabModel, BinWeightsAreADistributionOnTheSweepAxis) {
  const defects::MtjFabModel fab;
  const SttMramSpec mtj;
  double total = 0.0;
  for (const auto& bin : fab.resistance_bins) {
    total += bin.probability;
    // Every bin sits exactly on the backend's sweep axis so estimator
    // lookups hit characterized entries, never nearest-neighbour guesses.
    bool on_axis = false;
    for (const double r : mtj.resistances) on_axis = on_axis || r == bin.ohms;
    EXPECT_TRUE(on_axis) << "bin " << bin.ohms << " not on the R_P sweep axis";
    // The healthy anchor point is not a defect bin.
    EXPECT_NE(bin.ohms, mtj.r_parallel);
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_GT(fab.retention_fraction, 0.0);
  EXPECT_GT(fab.transition_fraction, 0.0);
  EXPECT_LT(fab.retention_fraction + fab.transition_fraction, 1.0);
}

TEST(MtjFabModel, SamplesFollowTheCategoryMix) {
  const defects::MtjFabModel fab;
  Rng rng(2025);
  int counts[3] = {0, 0, 0};
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const auto category = fab.sample_category(rng);
    counts[static_cast<int>(category)]++;
    EXPECT_GT(fab.sample_resistance(rng), 0.0);
  }
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, fab.retention_fraction, 0.02);
  EXPECT_NEAR(static_cast<double>(counts[1]) / n, fab.transition_fraction,
              0.02);
}

TEST(MtjFabModel, SamplerEmitsMtjDefects) {
  sram::BlockSpec block;
  block.rows = 2;
  block.cols = 1;
  defects::DefectSampler sampler(defects::MtjFabModel{}, block);
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    const defects::Defect defect = sampler.sample(rng);
    EXPECT_EQ(defect.kind, defects::DefectKind::Mtj);
    EXPECT_GT(defect.resistance, 0.0);
    EXPECT_EQ(defect.tag().rfind("mtj[", 0), 0u) << defect.tag();
  }
}

TEST(MtjDefects, AnalogInjectionRefusesMtjDefects) {
  sram::BlockSpec block;
  block.rows = 2;
  block.cols = 1;
  const defects::Defect defect = defects::representative_mtj(
      defects::MtjFaultCategory::Retention, block, 1.3e3);
  analog::Netlist netlist = sram::build_block(block);
  EXPECT_THROW(defects::inject(netlist, defect), Error);
}

}  // namespace
}  // namespace memstress::tech
