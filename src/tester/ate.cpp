#include "tester/ate.hpp"

#include <algorithm>
#include <cmath>

#include "analog/measure.hpp"
#include "layout/netnames.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace memstress::tester {

namespace nn = memstress::layout;

namespace {

/// What both march drivers set up before the transient: the compiled
/// stimulus (installed into the netlist), the recorded nodes and the
/// transient spec with any rescue escalation applied.
struct MarchSetup {
  CompiledMarch compiled;
  std::vector<std::string> record;
  analog::TransientSpec transient;
};

MarchSetup prepare_march(analog::Netlist& netlist, const sram::BlockSpec& spec,
                         const march::MarchTest& test,
                         const sram::StressPoint& at,
                         const AteOptions& options, std::size_t lanes) {
  require(options.steps_per_cycle >= 16,
          "run_march_analog: steps_per_cycle too coarse");
  MarchSetup setup{compile_march(netlist, spec, test, at), {}, {}};
  static metrics::Counter& marches = metrics::counter("tester.analog_marches");
  static metrics::Counter& cycles = metrics::counter("tester.analog_cycles");
  marches.add(static_cast<long long>(lanes));
  cycles.add(static_cast<long long>(setup.compiled.cycles.size() * lanes));

  for (int c = 0; c < spec.cols; ++c) setup.record.push_back(nn::net_q(c));
  for (const auto& extra : options.extra_record) {
    if (std::find(setup.record.begin(), setup.record.end(), extra) ==
        setup.record.end())
      setup.record.push_back(extra);
  }

  analog::TransientSpec& spec_t = setup.transient;
  spec_t.t_stop = setup.compiled.t_stop;
  spec_t.dt = at.period / options.steps_per_cycle;
  spec_t.temp_c = at.temp_c;
  if (options.rescue_level > 0) {
    const int level = std::min(options.rescue_level, 4);
    spec_t.max_halvings += 2 * level;
    spec_t.gmin *= std::pow(10.0, level);
    spec_t.edge_substeps *= 1 << level;
    static metrics::Counter& rescues = metrics::counter("tester.rescue_runs");
    rescues.add(1);
  }
  return setup;
}

/// Strobe every read cycle of the q outputs in `trace` into a fail log.
march::FailLog strobe(const CompiledMarch& compiled, const analog::Trace& trace,
                      const sram::StressPoint& at) {
  march::FailLog log;
  for (std::size_t k = 0; k < compiled.cycles.size(); ++k) {
    const CycleInfo& cycle = compiled.cycles[k];
    if (!cycle.operation.is_read) continue;
    const bool observed = analog::digital_at(
        trace, nn::net_q(cycle.col), compiled.sample_time(k), at.vdd);
    if (observed != cycle.operation.value) {
      log.record({static_cast<long>(k), cycle.element, cycle.op, cycle.row,
                  cycle.col, cycle.operation.value, observed});
    }
  }
  return log;
}

}  // namespace

AnalogRun run_march_analog(analog::Netlist netlist, const sram::BlockSpec& spec,
                           const march::MarchTest& test,
                           const sram::StressPoint& at,
                           const AteOptions& options) {
  trace::Span span("tester.run_march_analog");
  const MarchSetup setup = prepare_march(netlist, spec, test, at, options, 1);
  analog::Simulator sim(netlist);
  seed_block_state(sim, netlist, spec, at.vdd);
  AnalogRun run{{}, sim.run(setup.transient, setup.record), sim.stats()};
  run.log = strobe(setup.compiled, run.trace, at);
  return run;
}

std::vector<BatchAnalogRun> run_march_analog_batch(
    analog::Netlist netlist, const sram::BlockSpec& spec,
    const march::MarchTest& test, const sram::StressPoint& at,
    analog::SweptElement swept, const std::vector<double>& lane_values,
    const AteOptions& options) {
  trace::Span span("tester.run_march_analog_batch");
  const MarchSetup setup =
      prepare_march(netlist, spec, test, at, options, lane_values.size());
  analog::BatchSimulator sim(netlist, swept, lane_values);
  for (const auto& [name, volts] : initial_block_state(netlist, spec, at.vdd))
    sim.set_initial(name, volts);
  const std::vector<analog::LaneResult> lanes =
      sim.run(setup.transient, setup.record);

  std::vector<BatchAnalogRun> runs(lanes.size());
  for (std::size_t l = 0; l < lanes.size(); ++l) {
    BatchAnalogRun& out = runs[l];
    out.ok = lanes[l].ok;
    if (!lanes[l].ok) {
      out.error = lanes[l].error;
      continue;
    }
    out.log = strobe(setup.compiled, lanes[l].trace, at);
  }
  return runs;
}

ShmooGrid run_shmoo(const StressOracle& passes, const std::vector<double>& vdds,
                    const std::vector<double>& periods) {
  ShmooGrid grid(vdds, periods);
  for (std::size_t yi = 0; yi < vdds.size(); ++yi) {
    for (std::size_t xi = 0; xi < periods.size(); ++xi) {
      const sram::StressPoint at{vdds[yi], periods[xi]};
      grid.set(yi, xi, passes(at) ? ShmooCell::Pass : ShmooCell::Fail);
    }
  }
  return grid;
}

std::vector<double> standard_shmoo_vdds() {
  std::vector<double> vdds;
  for (double v = 0.8; v <= 2.2 + 1e-9; v += 0.1) vdds.push_back(v);
  return vdds;
}

std::vector<double> standard_shmoo_periods() {
  return {10e-9, 12e-9, 15e-9, 16e-9, 17e-9, 20e-9, 25e-9,
          30e-9, 40e-9, 60e-9, 80e-9, 100e-9};
}

}  // namespace memstress::tester
