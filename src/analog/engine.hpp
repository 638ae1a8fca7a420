// Transient circuit simulator: modified nodal analysis, Newton-Raphson on
// the nonlinear devices, backward-Euler integration of capacitors.
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

/// Assemble the full MNA system (Newton Jacobian + right-hand side) for
/// `netlist` linearized at iterate `v` with backward-Euler capacitor history
/// `v_prev`. `run_params` are the temperature-adjusted MOSFET parameters
/// (aligned with netlist.mosfets()); `gmin_target`, when non-empty, makes
/// the gmin floor pull toward that voltage per node instead of ground (DC
/// gmin stepping). Exposed as a free function so the batched kernel
/// (analog/batch.cpp) shares the exact stamp code of the scalar path;
/// Simulator::assemble delegates here.
void assemble_system(const Netlist& netlist,
                     const std::vector<MosParams>& run_params, double t,
                     double dt, double gmin,
                     const std::vector<double>& gmin_target,
                     const std::vector<double>& v,
                     const std::vector<double>& v_prev, DenseMatrix& a,
                     std::vector<double>& rhs);

/// Per-nominal-step flags marking which steps of a transient contain a
/// stimulus breakpoint (and therefore get fine edge substeps).
std::vector<bool> edge_step_flags(const Netlist& netlist,
                                  const TransientSpec& spec);

/// Resolve record entries (node names or "I(NAME)" branch currents) to
/// unknown-vector indices. `negate[i]` marks branch currents, which are
/// stored flowing into the positive terminal and reported negated.
void resolve_record_signals(const Netlist& netlist, std::size_t num_nodes,
                            const std::vector<std::string>& record,
                            std::vector<long>& index,
                            std::vector<bool>& negate);

/// Simulates a netlist. The netlist must outlive the simulator.
class Simulator {
 public:
  explicit Simulator(const Netlist& netlist);

  /// Set the initial voltage of a node (used-instead-of-DC-operating-point
  /// start, "UIC" style). Unset nodes start at 0 V.
  void set_initial(NodeId node, double volts);
  void set_initial(const std::string& node_name, double volts);

  /// Run a transient and record the named signals at every nominal step.
  /// A record entry is either a node name ("bl0") or a voltage-source
  /// branch current "I(NAME)" (positive current flows out of the source's
  /// positive terminal through the circuit). Throws Error if the Newton
  /// iteration fails even after step halving and the rescue pass.
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
  /// `set_state` expose the unknown vector (node voltages then branch
  /// currents); `advance_interval` integrates one nominal interval
  /// [t, t + spec.dt] with the exact halving / rescue ladder of run(),
  /// throwing SolverError when even the rescue pass gives up.
  void prepare(const TransientSpec& spec);
  void advance_interval(double t, const TransientSpec& spec, bool edge_step);
  const std::vector<double>& state() const { return state_; }
  void set_state(const std::vector<double>& v);

  std::size_t num_unknowns() const { return num_unknowns_; }

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

  void assemble(double t, double dt, double gmin, const std::vector<double>& v,
                const std::vector<double>& v_prev);

  void resolve_record(const std::vector<std::string>& record,
                      std::vector<long>& index, std::vector<bool>& negate) const;

  double voltage_of(const std::vector<double>& x, NodeId node) const {
    return node == kGround ? 0.0 : x[static_cast<std::size_t>(node) - 1];
  }

  const Netlist& netlist_;
  std::size_t num_nodes_ = 0;     // excluding ground
  std::size_t num_unknowns_ = 0;  // nodes + vsource branch currents
  /// Per-run temperature-adjusted MOSFET parameters (aligned with
  /// netlist_.mosfets()): the adjustment runs once per transient instead of
  /// once per model evaluation.
  std::vector<MosParams> run_params_;
  /// When non-empty (DC gmin stepping), the gmin conductance pulls each
  /// node toward this target voltage instead of ground.
  std::vector<double> gmin_target_;
  DenseMatrix a_;
  std::vector<double> rhs_;
  LuSolver lu_;
  std::unordered_map<NodeId, double> initial_;
  /// Unknown vector of the in-flight transient (see prepare / state).
  std::vector<double> state_;
  Stats stats_;
};

}  // namespace memstress::analog
