// Batched lockstep transient kernel for same-topology netlist families.
//
// The characterization sweep (estimator::characterize) simulates the same
// circuit many times while a single element value walks an axis: the
// defect-resistance of a bridge, the joint resistance of an open, or the
// breakdown voltage of a gate-oxide pinhole. Every lane of such a family
// shares the stimulus, the step schedule and (nearly) the Jacobian, so the
// BatchSimulator integrates all lanes in lockstep with structure-of-arrays
// state, amortizing the expensive parts of the scalar path:
//
//  * Factorizations are reused across iterations and steps while they keep
//    working — quiescent clock phases converge without a single
//    refactorization. On a resistor sweep they are also shared across
//    lanes: the per-lane defect-resistor stamp is a symmetric rank-1
//    difference, applied exactly with Sherman–Morrison via LuWorkspace. A
//    breakdown-voltage sweep differs by more than a rank-1 stamp, so each
//    of its lanes reuses only its own factorization.
//  * Every open lane takes one step of a per-lane trust ladder each
//    iteration, cheapest rung first:
//     1. its assigned factorization, trusted for small moves;
//     2. (resistor sweeps) a cluster-mate's factorization assembled this
//        iteration within kNearState of the lane's state, trusted for any
//        move — one refresh then serves every lane riding the same
//        common-mode swing;
//     3. its own freshly assembled Jacobian: the scalar Newton map itself.
//  * Convergence is judged per lane with both the classic |dv| < vtol test
//    and a row-scaled residual check, so a stale or neighboring-lane
//    Jacobian can never fake convergence: the residual is evaluated against
//    the lane's own exact device currents.
//  * Lanes carry node voltages only, and factor only the free nodes' block
//    (engine.hpp's RowMap). A source-driven node steps to V(t) whichever
//    rung serves the lane; that step reaches the free rows through the
//    factored Jacobian's source columns, which each slot keeps as a short
//    sparse list. A source's current is its node's KCL sum at the lane's
//    converged iterate.
//  * A lane the quasi-Newton iteration cannot converge is ejected to the
//    scalar path for that nominal step: it re-integrates the interval with
//    Simulator::advance_interval (the exact halving + rescue ladder), then
//    rejoins the lockstep group. A lane the scalar ladder also gives up on
//    is recorded as failed (LaneResult::error) without disturbing the rest.
//
// The result per lane is bit-for-bit *equivalent* to the scalar Simulator in
// verdict terms (same step grid, same record schedule, residuals driven to
// the same tolerance); it is not bit-identical in the last Newton digits,
// which is why callers that need byte-stable CSVs pin verdicts, not floats
// (see tests/golden and tests/estimator/test_characterize_modes).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "analog/engine.hpp"
#include "analog/netlist.hpp"

namespace memstress::analog {

/// Solver backend for the characterization sweeps, chosen per characterize
/// call (CharacterizeSpec::solver; unset means Batched).
enum class SolverMode {
  Exact,    ///< scalar Simulator per grid point: the reference path
  Batched,  ///< lockstep lanes through BatchSimulator
};

const char* solver_mode_name(SolverMode mode);

/// Parse "exact" / "batched"; throws Error on anything else.
SolverMode parse_solver_mode(const std::string& text);

/// Which single element of the shared topology varies across lanes.
struct SweptElement {
  enum class Kind {
    ResistorOhms,   ///< resistors()[index].ohms (bridge / open sweeps)
    BreakdownVbd,   ///< breakdowns()[index].vbd (gate-oxide sweeps)
  };
  Kind kind = Kind::ResistorOhms;
  std::size_t index = 0;
};

/// Per-lane outcome of a batched run. On failure (`ok == false`) the trace
/// is partial and `error` is the SolverError::reason() the scalar
/// Simulator would have thrown.
struct LaneResult {
  bool ok = false;
  /// Recorded waveforms for an ok lane; a placeholder single-signal trace
  /// (Trace rejects zero signals) when ok == false.
  Trace trace{std::vector<std::string>{"(none)"}};
  std::string error;
};

/// Integrates one netlist topology across many swept-element values in
/// lockstep. The netlist is copied at construction; the original only needs
/// to stay alive for the constructor call.
class BatchSimulator {
 public:
  BatchSimulator(const Netlist& netlist, SweptElement swept,
                 std::vector<double> lane_values);

  /// Initial node voltage, applied identically to every lane (UIC style,
  /// mirroring Simulator::set_initial).
  void set_initial(const std::string& node_name, double volts);

  /// Run the transient for every lane; results are indexed like the
  /// lane_values vector passed at construction.
  std::vector<LaneResult> run(const TransientSpec& spec,
                              const std::vector<std::string>& record);

 private:
  Netlist net_;  // private copy; swept element retargeted per refresh
  RowMap rows_;
  SweptElement swept_;
  std::vector<double> values_;
  std::vector<std::pair<std::string, double>> initial_;
};

}  // namespace memstress::analog
