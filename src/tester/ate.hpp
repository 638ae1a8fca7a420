// Virtual ATE: applies march tests to the transistor-level SRAM block at a
// chosen (Vdd, period) stress condition, strobes the outputs, and produces
// the same FailLog/bitmap a production tester datalog would.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "analog/batch.hpp"
#include "analog/engine.hpp"
#include "march/engine.hpp"
#include "sram/block.hpp"
#include "tester/stimulus.hpp"
#include "util/ascii_plot.hpp"

namespace memstress::tester {

struct AteOptions {
  int steps_per_cycle = 96;  ///< transient resolution per clock cycle
  std::vector<std::string> extra_record;  ///< additional nodes to trace
  /// SPICE-style rescue escalation for retry-after-solver-failure. Level 0
  /// is the nominal TransientSpec; each level relaxes the solve — two more
  /// step halvings, a 10x larger gmin floor, and doubled edge substeps — so
  /// a grid point whose Newton iteration diverged at the nominal settings
  /// gets progressively gentler reruns before being quarantined.
  int rescue_level = 0;
};

struct AnalogRun {
  march::FailLog log;
  analog::Trace trace;  ///< q outputs plus any extra_record nodes
  analog::Simulator::Stats sim_stats;
};

/// Run `test` on (a defect-injected copy of) the block netlist.
/// The netlist is taken by value because the stimulus waveforms are
/// installed into it.
AnalogRun run_march_analog(analog::Netlist netlist, const sram::BlockSpec& spec,
                           const march::MarchTest& test,
                           const sram::StressPoint& at,
                           const AteOptions& options = {});

/// Per-lane outcome of a batched march: like AnalogRun, but a lane whose
/// lockstep *and* scalar-fallback solves both failed reports ok == false
/// with the SolverError::reason() in `error` instead of throwing — the
/// caller (estimator::characterize) applies its usual retry/rescue policy to
/// just that lane.
struct BatchAnalogRun {
  bool ok = false;
  march::FailLog log;
  std::string error;
};

/// Run `test` once per lane of a same-topology family: the netlist carries
/// the defect already injected, and `swept`/`lane_values` identify the one
/// element whose value differs between lanes (defect resistance or
/// breakdown voltage; defects::inject returns it). Setup (stimulus
/// compilation, counters, recorded nodes, transient spec and rescue
/// escalation), state seeding and the strobe are run_march_analog's own;
/// only the transient integration runs through analog::BatchSimulator.
std::vector<BatchAnalogRun> run_march_analog_batch(
    analog::Netlist netlist, const sram::BlockSpec& spec,
    const march::MarchTest& test, const sram::StressPoint& at,
    analog::SweptElement swept, const std::vector<double>& lane_values,
    const AteOptions& options = {});

/// Pass/fail oracle over the stress plane.
using StressOracle = std::function<bool(const sram::StressPoint&)>;

/// Sweep the (Vdd, period) plane and build the shmoo plot: Y axis = supply
/// voltage, X axis = clock period, exactly like the paper's Figs. 3-10.
ShmooGrid run_shmoo(const StressOracle& passes, const std::vector<double>& vdds,
                    const std::vector<double>& periods);

/// Standard axes used by the paper's experimental shmoos: Vdd 0.8..2.2 V in
/// 0.1 V steps; period 10..100 ns (log-ish spread, including the tester's
/// 15 ns floor).
std::vector<double> standard_shmoo_vdds();
std::vector<double> standard_shmoo_periods();

}  // namespace memstress::tester
