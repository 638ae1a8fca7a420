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

AnalogRun run_march_analog(analog::Netlist netlist, const sram::BlockSpec& spec,
                           const march::MarchTest& test,
                           const sram::StressPoint& at,
                           const AteOptions& options) {
  require(options.steps_per_cycle >= 16,
          "run_march_analog: steps_per_cycle too coarse");
  trace::Span span("tester.run_march_analog");
  const CompiledMarch compiled = compile_march(netlist, spec, test, at);
  {
    static metrics::Counter& marches =
        metrics::counter("tester.analog_marches");
    static metrics::Counter& cycles = metrics::counter("tester.analog_cycles");
    marches.add(1);
    cycles.add(static_cast<long long>(compiled.cycles.size()));
  }

  analog::Simulator sim(netlist);
  seed_block_state(sim, netlist, spec, at.vdd);

  std::vector<std::string> record;
  for (int c = 0; c < spec.cols; ++c) record.push_back(nn::net_q(c));
  for (const auto& extra : options.extra_record) {
    if (std::find(record.begin(), record.end(), extra) == record.end())
      record.push_back(extra);
  }

  analog::TransientSpec spec_t;
  spec_t.t_stop = compiled.t_stop;
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

  AnalogRun run{march::FailLog{}, sim.run(spec_t, record), {}};
  run.sim_stats = sim.stats();

  for (std::size_t k = 0; k < compiled.cycles.size(); ++k) {
    const CycleInfo& cycle = compiled.cycles[k];
    if (!cycle.operation.is_read) continue;
    const bool observed = analog::digital_at(
        run.trace, nn::net_q(cycle.col), compiled.sample_time(k), at.vdd);
    if (observed != cycle.operation.value) {
      run.log.record({static_cast<long>(k), cycle.element, cycle.op, cycle.row,
                      cycle.col, cycle.operation.value, observed});
    }
  }
  return run;
}

std::vector<BatchAnalogRun> run_march_analog_batch(
    analog::Netlist netlist, const sram::BlockSpec& spec,
    const march::MarchTest& test, const sram::StressPoint& at,
    analog::SweptElement swept, const std::vector<double>& lane_values,
    const AteOptions& options) {
  require(options.steps_per_cycle >= 16,
          "run_march_analog_batch: steps_per_cycle too coarse");
  trace::Span span("tester.run_march_analog_batch");
  const CompiledMarch compiled = compile_march(netlist, spec, test, at);
  {
    static metrics::Counter& marches =
        metrics::counter("tester.analog_marches");
    static metrics::Counter& cycles = metrics::counter("tester.analog_cycles");
    marches.add(static_cast<long long>(lane_values.size()));
    cycles.add(static_cast<long long>(compiled.cycles.size() *
                                      lane_values.size()));
  }

  analog::BatchSimulator sim(netlist, swept, lane_values);
  for (const auto& [name, volts] : initial_block_state(netlist, spec, at.vdd))
    sim.set_initial(name, volts);

  std::vector<std::string> record;
  for (int c = 0; c < spec.cols; ++c) record.push_back(nn::net_q(c));
  for (const auto& extra : options.extra_record) {
    if (std::find(record.begin(), record.end(), extra) == record.end())
      record.push_back(extra);
  }

  analog::TransientSpec spec_t;
  spec_t.t_stop = compiled.t_stop;
  spec_t.dt = at.period / options.steps_per_cycle;
  spec_t.temp_c = at.temp_c;
  // No rescue escalation here: the batch path is always attempt 1; a failed
  // lane is retried by the caller on the scalar path at rescue level >= 1.

  std::vector<analog::LaneResult> lanes = sim.run(spec_t, record);

  std::vector<BatchAnalogRun> runs(lanes.size());
  for (std::size_t l = 0; l < lanes.size(); ++l) {
    BatchAnalogRun& out = runs[l];
    out.sim_stats = lanes[l].stats;
    out.ok = lanes[l].ok;
    if (!lanes[l].ok) {
      out.failure = lanes[l].failure;
      out.error = lanes[l].error;
      continue;
    }
    for (std::size_t k = 0; k < compiled.cycles.size(); ++k) {
      const CycleInfo& cycle = compiled.cycles[k];
      if (!cycle.operation.is_read) continue;
      const bool observed =
          analog::digital_at(lanes[l].trace, nn::net_q(cycle.col),
                             compiled.sample_time(k), at.vdd);
      if (observed != cycle.operation.value) {
        out.log.record({static_cast<long>(k), cycle.element, cycle.op,
                        cycle.row, cycle.col, cycle.operation.value, observed});
      }
    }
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
