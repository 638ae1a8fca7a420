// Transient circuit simulator: nodal analysis, Newton-Raphson on the
// nonlinear devices, backward-Euler integration of capacitors.
//
// Every voltage source drives a node against ground (Netlist::add_vsource),
// so that node's voltage is a known input, V(t), not an unknown: its column
// of the Jacobian moves to the right-hand side, and its KCL row stays out of
// the solve. Modified nodal analysis would add a branch-current unknown per
// source; eliminating those exactly leaves the same Newton map on fewer
// unknowns (26 of the standard 2x1 block's 34 nodes, against 42). A
// source's current I(NAME) is its node's KCL row applied to the accepted
// iterate.
//
// Scope: the netlists simulated here are a single SRAM block plus periphery
// (tens of nodes), driven by march-test stimuli over tens of clock cycles.
// A fixed-step backward-Euler scheme with local step halving on Newton
// failure is accurate enough for pass/fail decisions and is fast enough to
// run full shmoo (voltage x period) sweeps.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "analog/matrix.hpp"
#include "analog/netlist.hpp"
#include "analog/waveform.hpp"
#include "util/error.hpp"

namespace memstress::analog {

/// Why a transient (or DC) solve gave up. The distinction matters to the
/// retry layer: both classes are worth a rescue escalation (deeper halving,
/// larger gmin, finer edge substeps), but they are reported separately in
/// quarantine records.
enum class SolverFailure {
  NewtonNonConvergence,  ///< iteration exhausted without meeting vtol
  SingularMatrix,        ///< LU factorization hit a numerically singular pivot
};

const char* solver_failure_name(SolverFailure failure);

/// Typed error thrown by Simulator::run / solve_dc when the Newton solve
/// fails even after step halving and the rescue pass. Callers with a retry
/// policy (estimator::characterize) catch this type specifically; anything
/// else escaping the simulator is a configuration bug and stays fatal.
class SolverError : public Error {
 public:
  SolverError(SolverFailure failure, const std::string& what)
      : Error(what), failure_(failure) {}
  SolverFailure failure() const { return failure_; }
  /// "<failure>: <what>" — the one rendering quarantine records and failed
  /// lanes carry.
  std::string reason() const {
    return std::string(solver_failure_name(failure_)) + ": " + what();
  }

 private:
  SolverFailure failure_;
};

struct TransientSpec {
  double t_stop = 0.0;     ///< simulate [0, t_stop]
  double dt = 1e-9;        ///< nominal step
  int max_newton = 100;    ///< Newton iterations per step before halving dt
  double vtol = 1e-6;      ///< convergence threshold on max |delta V|
  double damping = 0.5;    ///< max per-iteration voltage update [V]
  int max_halvings = 6;    ///< dt halvings allowed on a stubborn step
  double gmin = 1e-12;     ///< node-to-ground conductance floor [S]
  /// Steps containing a stimulus breakpoint are pre-subdivided this many
  /// times: coarse nominal steps stay cheap while edges (where bistable
  /// circuits can otherwise be stepped onto the wrong Newton root) are
  /// integrated finely.
  int edge_substeps = 8;
  /// Junction temperature for the MOSFET models [degC].
  double temp_c = 25.0;
};

/// Row order of a netlist's Newton system, built once per netlist. Node
/// index u is NodeId u + 1 (ground has no row). The free nodes, which no
/// source drives, take rows [0, free()) in node order; source k's node takes
/// row free() + k.
class RowMap {
 public:
  explicit RowMap(const Netlist& netlist);

  std::size_t nodes() const { return node_of_row_.size(); }
  /// Unknowns of the Newton solve.
  std::size_t free() const { return free_; }
  std::size_t row(std::size_t node_index) const { return row_of_node_[node_index]; }
  std::size_t node(std::size_t row) const { return node_of_row_[row]; }
  /// Node index of source k.
  std::size_t source_node(std::size_t k) const { return node_of_row_[free_ + k]; }

 private:
  std::size_t free_ = 0;
  std::vector<std::size_t> row_of_node_;
  std::vector<std::size_t> node_of_row_;
};

/// Each source's voltage at time t, in netlist.vsources() order.
void source_voltages(const Netlist& netlist, double t, std::vector<double>& out);

/// Assemble the Newton system of `netlist` linearized at node voltages `v`
/// (node order) with backward-Euler capacitor history `v_prev`, at the
/// source voltages `source_v` (source_voltages() at the step's time). `a`
/// and `rhs` span every node in `rows` order: the leading free() x free()
/// block of `a` is the Jacobian of the free nodes, and rhs[0, free()) their
/// right-hand side with the source columns' known voltages moved over. Row
/// free() + k is the KCL row of source k's node, over every column; the
/// columns right of the block are the source columns. `run_params` are the
/// temperature-adjusted MOSFET parameters (aligned with netlist.mosfets());
/// `gmin_target`, when non-empty, makes the gmin floor pull toward that
/// voltage per node instead of ground (DC gmin stepping). Exposed as a free
/// function so the batched kernel (analog/batch.cpp) shares the exact stamp
/// code of the scalar path; Simulator::assemble delegates here.
void assemble_system(const Netlist& netlist, const RowMap& rows,
                     const std::vector<MosParams>& run_params,
                     const std::vector<double>& source_v, double dt,
                     double gmin, const std::vector<double>& gmin_target,
                     const std::vector<double>& v,
                     const std::vector<double>& v_prev, DenseMatrix& a,
                     std::vector<double>& rhs);

/// Current out of source k's positive terminal into the circuit: the KCL
/// row of its node in a system from assemble_system, applied to the node
/// voltages `v`.
double source_current(const RowMap& rows, const DenseMatrix& a,
                      const std::vector<double>& rhs, std::size_t k,
                      const std::vector<double>& v);

/// Per-nominal-step flags marking which steps of a transient contain a
/// stimulus breakpoint (and therefore get fine edge substeps).
std::vector<bool> edge_step_flags(const Netlist& netlist,
                                  const TransientSpec& spec);

/// Resolve record entries to indices: a node name to its node index, and
/// "I(NAME)" to nodes() + k for source k.
std::vector<std::size_t> resolve_record_signals(
    const Netlist& netlist, const std::vector<std::string>& record);

/// Simulates a netlist. The netlist must outlive the simulator.
class Simulator {
 public:
  explicit Simulator(const Netlist& netlist);

  /// Set the initial voltage of a node (used-instead-of-DC-operating-point
  /// start, "UIC" style). Unset nodes start at 0 V.
  void set_initial(NodeId node, double volts);
  void set_initial(const std::string& node_name, double volts);

  /// Run a transient and record the named signals at every nominal step.
  /// A record entry is either a node name ("bl0") or a voltage source's
  /// current "I(NAME)" (positive current flows out of the source's
  /// positive terminal into the circuit; see source_current). Throws Error
  /// if the Newton iteration fails even after step halving and the rescue
  /// pass.
  Trace run(const TransientSpec& spec, const std::vector<std::string>& record);

  /// DC operating point: Newton with gmin stepping, capacitors open,
  /// sources at their t=0 values. Returns a single-sample Trace of the
  /// requested signals. Initial conditions (set_initial) seed the solve —
  /// for bistable circuits they select which stable point is found.
  Trace solve_dc(const std::vector<std::string>& record, double temp_c = 25.0);

  /// Manual stepping API, used by the batched kernel's per-lane scalar
  /// fallback. `prepare` does everything run() does before its step loop
  /// (reset stats, temperature-adjust the MOSFET models, seed the state
  /// vector from initial conditions and t=0 source values); `state` /
  /// `set_state` expose every node voltage, in node order;
  /// `advance_interval` integrates one nominal interval [t, t + spec.dt]
  /// with the exact halving / rescue ladder of run(), throwing SolverError
  /// when even the rescue pass gives up. `source_current(k)` is source k's
  /// output current at state(): its node's KCL row from the last Newton
  /// iteration, applied to state() (0 before the first iteration).
  void prepare(const TransientSpec& spec);
  void advance_interval(double t, const TransientSpec& spec, bool edge_step);
  const std::vector<double>& state() const { return state_; }
  void set_state(const std::vector<double>& v);
  double source_current(std::size_t k) const {
    return analog::source_current(rows_, a_, rhs_, k, state_);
  }

  /// Statistics from the last run (for perf benchmarks / regression tests).
  struct Stats {
    long steps = 0;
    long newton_iterations = 0;
    long halvings = 0;
    /// LU factorizations: the scalar path factors once per Newton
    /// iteration. A BatchSimulator lane counts only its ejected intervals
    /// here; the kernel's own refreshes are analog.refactorizations.
    long factorizations = 0;
    std::string last_failure;  ///< diagnostics of the last Newton failure
    /// Classification of the last failure (meaningful only while
    /// last_failure is non-empty); carried into the SolverError thrown when
    /// the rescue pass also gives up.
    SolverFailure last_failure_kind = SolverFailure::NewtonNonConvergence;
  };
  const Stats& stats() const { return stats_; }

 private:
  // One Newton solve of the whole system at time `t` with capacitor history
  // `v_prev` and timestep `dt`. Updates `v` in place. Returns true on
  // convergence. `damping`/`max_newton` override the spec (the rescue pass
  // for bistable flips uses a tiny clamp and a large iteration budget).
  bool solve_step(double t, double dt, const TransientSpec& spec,
                  const std::vector<double>& v_prev, std::vector<double>& v,
                  double damping, int max_newton);

  /// Record entry i's value at the current state (see resolve_record_signals).
  double signal(std::size_t index) const {
    return index < rows_.nodes() ? state_[index]
                                 : source_current(index - rows_.nodes());
  }

  const Netlist& netlist_;
  RowMap rows_;
  /// Per-run temperature-adjusted MOSFET parameters (aligned with
  /// netlist_.mosfets()): the adjustment runs once per transient instead of
  /// once per model evaluation.
  std::vector<MosParams> run_params_;
  /// When non-empty (DC gmin stepping), the gmin conductance pulls each
  /// node toward this target voltage instead of ground.
  std::vector<double> gmin_target_;
  /// The last Newton iteration's system (assemble_system); its source rows
  /// give source_current().
  DenseMatrix a_;
  std::vector<double> rhs_;
  std::vector<double> source_v_;  // source voltages at the step's time
  LuSolver lu_;
  std::unordered_map<NodeId, double> initial_;
  /// Node voltages of the in-flight transient (see prepare / state).
  std::vector<double> state_;
  Stats stats_;
};

}  // namespace memstress::analog
