// BatchSimulator-vs-scalar equivalence fuzz: lanes integrated in lockstep
// (resistance sweeps sharing Jacobians, breakdown sweeps each on their own)
// must reproduce the scalar Simulator's waveforms and the scalar
// ATE path's fail bitmaps on randomly drawn defect/stress points.
#include "analog/batch.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "defects/defect.hpp"
#include "layout/netnames.hpp"
#include "march/library.hpp"
#include "sram/block.hpp"
#include "tester/ate.hpp"
#include "util/rng.hpp"

namespace memstress::analog {
namespace {

sram::BlockSpec small_block() {
  sram::BlockSpec spec;
  spec.rows = 2;
  spec.cols = 1;
  return spec;
}

/// Scalar reference verdict for one (defect, stress, value) point.
std::string scalar_signature(const sram::BlockSpec& spec,
                             const defects::Defect& defect,
                             const sram::StressPoint& at) {
  Netlist net = sram::build_block(spec);
  defects::inject(net, defect);
  const tester::AnalogRun run =
      tester::run_march_analog(std::move(net), spec, march::test_11n(), at);
  return run.log.summary(march::test_11n());
}

TEST(BatchSimulator, MatchesScalarVerdictsAcrossRandomBridges) {
  const sram::BlockSpec spec = small_block();
  Rng rng(815);
  const std::vector<double> vdds{1.0, 1.65, 1.8, 1.95};
  const std::vector<double> periods{100e-9, 25e-9};
  const auto categories = defects::simulatable_bridge_categories(spec);

  for (int draw = 0; draw < 2; ++draw) {
    const auto category = categories[rng.below(categories.size())];
    const sram::StressPoint at{vdds[rng.below(vdds.size())],
                               periods[rng.below(periods.size())]};
    // Log-uniform resistances across the contested decade band.
    std::vector<double> lane_r;
    for (int l = 0; l < 3; ++l)
      lane_r.push_back(std::pow(10.0, rng.uniform(3.0, 5.5)));

    Netlist family = sram::build_block(spec);
    const defects::Defect lead =
        defects::representative_bridge(category, spec, lane_r.front());
    defects::inject(family, lead);
    const SweptElement swept{SweptElement::Kind::ResistorOhms,
                             family.resistors().size() - 1};
    const auto runs = tester::run_march_analog_batch(
        family, spec, march::test_11n(), at, swept, lane_r);
    ASSERT_EQ(runs.size(), lane_r.size());
    for (std::size_t l = 0; l < lane_r.size(); ++l) {
      ASSERT_TRUE(runs[l].ok) << runs[l].error;
      const defects::Defect d =
          defects::representative_bridge(category, spec, lane_r[l]);
      EXPECT_EQ(runs[l].log.summary(march::test_11n()),
                scalar_signature(spec, d, at))
          << "lane=" << l << " R=" << lane_r[l] << " vdd=" << at.vdd
          << " T=" << at.period;
    }
  }
}

TEST(BatchSimulator, MatchesScalarVerdictsOnBreakdownSweep) {
  const sram::BlockSpec spec = small_block();
  const sram::StressPoint at{1.95, 25e-9};
  const double r_gox = 5e3;
  const std::vector<double> lane_vbd{1.7, 1.925};

  Netlist family = sram::build_block(spec);
  defects::Defect lead = defects::representative_bridge(
      layout::BridgeCategory::CellGateOxide, spec, r_gox);
  lead.breakdown_v = lane_vbd.front();
  defects::inject(family, lead);
  const SweptElement swept{SweptElement::Kind::BreakdownVbd,
                           family.breakdowns().size() - 1};
  const auto runs = tester::run_march_analog_batch(
      family, spec, march::test_11n(), at, swept, lane_vbd);
  ASSERT_EQ(runs.size(), lane_vbd.size());
  for (std::size_t l = 0; l < lane_vbd.size(); ++l) {
    ASSERT_TRUE(runs[l].ok) << runs[l].error;
    defects::Defect d = defects::representative_bridge(
        layout::BridgeCategory::CellGateOxide, spec, r_gox);
    d.breakdown_v = lane_vbd[l];
    EXPECT_EQ(runs[l].log.summary(march::test_11n()),
              scalar_signature(spec, d, at))
        << "lane=" << l << " vbd=" << lane_vbd[l];
  }
}

TEST(BatchSimulator, TraceMatchesScalarWaveform) {
  // Beyond verdict equality: the recorded q-output waveform of a batched
  // lane must follow the scalar trajectory sample by sample. A basin flip
  // (the lockstep iteration converging to the "other" root of a contested
  // latch) shows up here as a rail-sized divergence long before it shows
  // up in a verdict.
  const sram::BlockSpec spec = small_block();
  const sram::StressPoint at{1.8, 25e-9};
  const double r = 30e3;
  const defects::Defect lead = defects::representative_bridge(
      layout::BridgeCategory::CellTrueFalse, spec, r);

  Netlist scalar_net = sram::build_block(spec);
  defects::inject(scalar_net, lead);
  const tester::AnalogRun scalar_run = tester::run_march_analog(
      std::move(scalar_net), spec, march::test_11n(), at);

  Netlist family = sram::build_block(spec);
  defects::inject(family, lead);
  const SweptElement swept{SweptElement::Kind::ResistorOhms,
                           family.resistors().size() - 1};
  const tester::CompiledMarch compiled =
      tester::compile_march(family, spec, march::test_11n(), at);
  BatchSimulator bsim(family, swept, {r / 3.0, r});
  for (const auto& [name, volts] :
       tester::initial_block_state(family, spec, at.vdd))
    bsim.set_initial(name, volts);
  TransientSpec tspec;
  tspec.t_stop = compiled.t_stop;
  tspec.dt = at.period / 96;
  const std::string q0 = layout::net_q(0);
  const auto lanes = bsim.run(tspec, {q0});
  ASSERT_TRUE(lanes[1].ok) << lanes[1].error;

  const Trace& st = scalar_run.trace;
  const Trace& bt = lanes[1].trace;
  ASSERT_EQ(st.sample_count(), bt.sample_count());
  const std::size_t si = st.signal_index(q0);
  const std::size_t bi = bt.signal_index(q0);
  double max_diff = 0.0;
  for (std::size_t k = 0; k < st.sample_count(); ++k)
    max_diff = std::max(max_diff,
                        std::fabs(st.samples(si)[k] - bt.samples(bi)[k]));
  // Newton tolerance is 1e-6 V; allow a couple of orders of slack for
  // tolerance-level differences compounding over the transient.
  EXPECT_LT(max_diff, 1e-4);
}

}  // namespace
}  // namespace memstress::analog
