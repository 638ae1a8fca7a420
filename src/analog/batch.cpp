#include "analog/batch.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <utility>

#include "util/error.hpp"
#include "util/metrics.hpp"

namespace memstress::analog {

const char* solver_mode_name(SolverMode mode) {
  return mode == SolverMode::Exact ? "exact" : "batched";
}

SolverMode parse_solver_mode(const std::string& text) {
  if (text == "exact") return SolverMode::Exact;
  if (text == "batched") return SolverMode::Batched;
  throw Error("unknown solver mode '" + text + "' (expected exact or batched)");
}

namespace {

/// One lane-iteration served by an existing factorization instead of the
/// scalar path's factor-per-iteration; the headline economy of the kernel.
metrics::Counter& refactor_avoided_counter() {
  static metrics::Counter& c = metrics::counter("analog.refactor_avoided");
  return c;
}
metrics::Counter& refactorization_counter() {
  static metrics::Counter& c = metrics::counter("analog.refactorizations");
  return c;
}
metrics::Counter& lane_ejection_counter() {
  static metrics::Counter& c = metrics::counter("analog.lane_ejections");
  return c;
}

}  // namespace

BatchSimulator::BatchSimulator(const Netlist& netlist, SweptElement swept,
                               std::vector<double> lane_values)
    : net_(netlist),
      rows_(net_),
      swept_(swept),
      values_(std::move(lane_values)) {
  require(!values_.empty(), "BatchSimulator: at least one lane required");
  if (swept_.kind == SweptElement::Kind::ResistorOhms) {
    require(swept_.index < net_.resistors().size(),
            "BatchSimulator: swept resistor index out of range");
    for (const double v : values_)
      require(v > 0.0, "BatchSimulator: lane resistance must be positive");
  } else {
    require(swept_.index < net_.breakdowns().size(),
            "BatchSimulator: swept breakdown index out of range");
    for (const double v : values_)
      require(v >= 0.0, "BatchSimulator: lane vbd must be >= 0");
  }
}

void BatchSimulator::set_initial(const std::string& node_name, double volts) {
  require(net_.find_node(node_name) != kGround,
          "BatchSimulator::set_initial: ground is fixed at 0 V");
  initial_.emplace_back(node_name, volts);
}

namespace {

/// All mutable state of one batched run. Lane-major ("SoA") layout for the
/// node-voltage vectors: v[u * lanes + l] is node index u of lane l, so the
/// shared matrix row sweeps contiguously across lanes in the inner loop.
struct Runner {
  // --- immutable-per-run context -------------------------------------
  Netlist& net;  // private copy owned by the BatchSimulator; retargeted
  const RowMap& rows;
  const SweptElement swept;
  const std::vector<double>& values;
  const TransientSpec& spec;
  const std::size_t lanes, num_nodes, num_free, num_sources;
  /// Lanes share factorizations only across a resistor sweep, where the
  /// lane difference is the rank-1 stamp Sherman–Morrison bridges.
  const bool share_jacobian;
  std::vector<MosParams> run_params;
  std::vector<std::pair<std::string, double>> initial;
  /// The swept resistor's ends as (row, ±1): its free ends are the
  /// Sherman–Morrison direction; an end on a source node couples the lane's
  /// conductance difference to that node's step through the right-hand side.
  std::vector<std::pair<std::size_t, double>> swept_free, swept_source;

  // --- SoA state ------------------------------------------------------
  std::vector<double> v;        // current iterate, all lanes
  std::vector<double> v_piece;  // backward-Euler history (start of piece)
  std::vector<double> v_backup; // start of nominal interval (for fallback)
  /// KCL sum per node and lane, recomputed each iteration: F for a free
  /// node; for a source node, the current the source delivers.
  std::vector<double> residual;
  /// Current out of each source, per lane (current[k * lanes + l]): its
  /// node's KCL sum at the lane's last converged iterate.
  std::vector<double> current;
  std::vector<double> source_v;  // source voltages at the piece's end time

  // --- per-lane bookkeeping -------------------------------------------
  std::vector<char> dead;           // permanently failed
  std::vector<char> converged;      // within the current piece
  std::vector<char> piece_failed;   // ejected for the current interval
  std::vector<double> last_dv;      // worst node update of the last solve
  std::vector<double> res_norm;     // scaled residual of the last evaluation
  std::vector<double> res_prev;     // ... of the evaluation before a solve
  std::vector<char> solved_last;    // lane solved in the previous iteration
  std::vector<std::size_t> slot_of; // slot the lane is clustered on (shared)
  std::vector<int> lane_iter;       // applied updates this piece (clamp sched)
  std::vector<Simulator::Stats> stats;
  std::vector<std::string> error;

  // --- shared linear algebra ------------------------------------------
  /// Jacobian slots, one per lane. In the shared mode lanes cluster onto a
  /// few of them (slot_of) and bridge the swept-value difference with a
  /// Sherman–Morrison update; a vbd sweep's lanes each use exactly their
  /// own slot.
  struct Slot {
    LuWorkspace ws;
    bool valid = false;
    bool fresh = false;  // factored this lockstep iteration
    double g_ref = 0.0;  // swept-resistor conductance baked into the factor
    std::vector<double> state;  // node voltages the factor was assembled at
    /// The factored Jacobian's source columns: free row `row` couples to
    /// source `source`'s node with entry `a`.
    struct SourceEntry {
      std::size_t row, source;
      double a;
    };
    std::vector<SourceEntry> source_cols;
  };
  std::vector<Slot> slots;
  DenseMatrix a_lin;      // linear stamps over node indices (excl. swept R,
                          // excl. devices)
  /// Nonzero entries of a_lin in row-major order, so the residual's linear
  /// product streams over actual stamps instead of scanning the n^2 grid.
  struct LinEntry {
    std::size_t u, c;
    double a;
  };
  std::vector<LinEntry> a_lin_nnz;
  bool a_lin_valid = false;
  double a_lin_dt = 0.0;
  DenseMatrix a_scratch;  // assemble_system target for refreshes
  std::vector<double> rhs_scratch;
  std::vector<double> lane_vec;   // a lane's free-row solve vector
  std::vector<double> lane_step;  // a lane's source-node steps to V(t)
  std::vector<double> lane_v;     // gather/scatter scratch
  std::vector<double> lane_prev;

  /// Lazily created per-lane scalar simulators for ejected intervals; each
  /// owns a netlist copy fixed at the lane's swept value.
  struct Fallback {
    std::unique_ptr<Netlist> net;
    std::unique_ptr<Simulator> sim;
  };
  std::vector<Fallback> fallbacks;

  long refactor_avoided = 0;
  long refactorizations = 0;
  long lane_ejections = 0;

  Runner(Netlist& net_in, const RowMap& rows_in, SweptElement swept_in,
         const std::vector<double>& values_in, const TransientSpec& spec_in,
         std::vector<std::pair<std::string, double>> initial_in)
      : net(net_in),
        rows(rows_in),
        swept(swept_in),
        values(values_in),
        spec(spec_in),
        lanes(values_in.size()),
        num_nodes(rows_in.nodes()),
        num_free(rows_in.free()),
        num_sources(net_in.vsources().size()),
        share_jacobian(swept_in.kind == SweptElement::Kind::ResistorOhms),
        initial(std::move(initial_in)) {
    run_params.reserve(net.mosfets().size());
    for (const auto& m : net.mosfets())
      run_params.push_back(spec.temp_c == 25.0
                               ? m.params
                               : at_temperature(m.params, spec.temp_c));
    if (share_jacobian) {
      const auto& r = net.resistors()[swept.index];
      for (const auto& [node, coeff] : {std::pair{r.a, +1.0}, {r.b, -1.0}}) {
        if (node == kGround) continue;
        const std::size_t row = rows.row(idx(node));
        (row < num_free ? swept_free : swept_source).emplace_back(row, coeff);
      }
    }
    const std::size_t total = num_nodes * lanes;
    v.assign(total, 0.0);
    v_piece.assign(total, 0.0);
    v_backup.assign(total, 0.0);
    residual.assign(total, 0.0);
    current.assign(num_sources * lanes, 0.0);
    dead.assign(lanes, 0);
    converged.assign(lanes, 0);
    piece_failed.assign(lanes, 0);
    last_dv.assign(lanes, std::numeric_limits<double>::infinity());
    res_norm.assign(lanes, std::numeric_limits<double>::infinity());
    res_prev.assign(lanes, std::numeric_limits<double>::infinity());
    solved_last.assign(lanes, 0);
    slot_of.assign(lanes, 0);
    lane_iter.assign(lanes, 0);
    stats.resize(lanes);
    error.resize(lanes);
    // One slot per lane either way. Shared mode clusters lanes onto a few
    // of them (slot_of) and bridges the swept-value difference with a rank-1
    // update; slot l is simply where lane l's own-state refresh lands.
    slots.resize(lanes);
    a_lin.resize(num_nodes);
    a_scratch.resize(num_nodes);
    rhs_scratch.assign(num_nodes, 0.0);
    lane_vec.assign(num_free, 0.0);
    lane_step.assign(num_sources, 0.0);
    lane_v.assign(num_nodes, 0.0);
    lane_prev.assign(num_nodes, 0.0);
    fallbacks.resize(lanes);
  }

  static std::size_t idx(NodeId n) { return static_cast<std::size_t>(n) - 1; }
  std::size_t at(std::size_t u, std::size_t l) const { return u * lanes + l; }
  double volt(const std::vector<double>& x, NodeId n, std::size_t l) const {
    return n == kGround ? 0.0 : x[at(idx(n), l)];
  }

  bool swept_resistor() const {
    return swept.kind == SweptElement::Kind::ResistorOhms;
  }

  /// Point the private netlist's swept element at `value` (so a full
  /// Jacobian assembled from it describes that lane).
  void retarget(double value) {
    if (swept_resistor())
      net.set_resistor_ohms(swept.index, value);
    else
      net.set_breakdown_vbd(swept.index, value);
  }

  void seed_state() {
    for (const auto& [name, volts] : initial) {
      const std::size_t u = idx(net.find_node(name));
      for (std::size_t l = 0; l < lanes; ++l) v[at(u, l)] = volts;
    }
    for (const auto& src : net.vsources()) {
      const double val = src.wave.value(0.0);
      const std::size_t u = idx(src.pos);
      for (std::size_t l = 0; l < lanes; ++l) v[at(u, l)] = val;
    }
    v_piece = v;
  }

  /// Linear, lane-independent stamps: gmin floor, every resistor except a
  /// swept one and backward-Euler capacitor conductances (dt-dependent).
  /// Devices and the swept element stay out — they are evaluated exactly,
  /// per lane, in eval_residuals.
  void build_a_lin(double dt) {
    if (a_lin_valid && a_lin_dt == dt) return;
    a_lin.set_zero();
    for (std::size_t n = 0; n < num_nodes; ++n) a_lin.add(n, n, spec.gmin);
    const auto& resistors = net.resistors();
    for (std::size_t i = 0; i < resistors.size(); ++i) {
      if (swept_resistor() && i == swept.index) continue;
      const auto& r = resistors[i];
      const double g = 1.0 / r.ohms;
      if (r.a != kGround) a_lin.add(idx(r.a), idx(r.a), g);
      if (r.b != kGround) a_lin.add(idx(r.b), idx(r.b), g);
      if (r.a != kGround && r.b != kGround) {
        a_lin.add(idx(r.a), idx(r.b), -g);
        a_lin.add(idx(r.b), idx(r.a), -g);
      }
    }
    for (const auto& c : net.capacitors()) {
      const double g = c.farads / dt;
      if (c.a != kGround) a_lin.add(idx(c.a), idx(c.a), g);
      if (c.b != kGround) a_lin.add(idx(c.b), idx(c.b), g);
      if (c.a != kGround && c.b != kGround) {
        a_lin.add(idx(c.a), idx(c.b), -g);
        a_lin.add(idx(c.b), idx(c.a), -g);
      }
    }
    a_lin_nnz.clear();
    for (std::size_t u = 0; u < num_nodes; ++u)
      for (std::size_t c = 0; c < num_nodes; ++c)
        if (a_lin.at(u, c) != 0.0) a_lin_nnz.push_back({u, c, a_lin.at(u, c)});
    a_lin_valid = true;
    a_lin_dt = dt;
  }

  /// True KCL residual F(v) per node and lane with step dt: linear part as
  /// an (A_lin x all-lanes) product, then exact per-lane device currents.
  /// No linearization anywhere, so |F| small means the lane genuinely
  /// solves its own circuit — regardless of whose Jacobian produced the
  /// iterates.
  void eval_residuals(double dt) {
    std::fill(residual.begin(), residual.end(), 0.0);
    for (const LinEntry& e : a_lin_nnz) {
      double* out = &residual[e.u * lanes];
      const double* in = &v[e.c * lanes];
      const double a = e.a;
      for (std::size_t l = 0; l < lanes; ++l) out[l] += a * in[l];
    }
    // Capacitor history currents (the rhs of the companion model).
    for (const auto& c : net.capacitors()) {
      const double g = c.farads / dt;
      for (std::size_t l = 0; l < lanes; ++l) {
        const double ieq = g * (volt(v_piece, c.a, l) - volt(v_piece, c.b, l));
        if (c.a != kGround) residual[at(idx(c.a), l)] -= ieq;
        if (c.b != kGround) residual[at(idx(c.b), l)] += ieq;
      }
    }
    // Exact nonlinear device currents, per lane.
    const auto& mosfets = net.mosfets();
    for (std::size_t mi = 0; mi < mosfets.size(); ++mi) {
      const auto& m = mosfets[mi];
      const MosParams& params = run_params[mi];
      for (std::size_t l = 0; l < lanes; ++l) {
        if (converged[l]) continue;
        const double i0 = mos_current(m.type, params, volt(v, m.d, l),
                                      volt(v, m.g, l), volt(v, m.s, l));
        if (m.d != kGround) residual[at(idx(m.d), l)] += i0;
        if (m.s != kGround) residual[at(idx(m.s), l)] -= i0;
      }
    }
    const auto& breakdowns = net.breakdowns();
    for (std::size_t bi = 0; bi < breakdowns.size(); ++bi) {
      const auto& br = breakdowns[bi];
      const bool is_swept = !swept_resistor() && bi == swept.index;
      for (std::size_t l = 0; l < lanes; ++l) {
        if (converged[l]) continue;
        const double vbd = is_swept ? values[l] : br.vbd;
        const double i0 = breakdown_current(
            volt(v, br.a, l) - volt(v, br.b, l), br.ohms, vbd, br.smooth);
        if (br.a != kGround) residual[at(idx(br.a), l)] += i0;
        if (br.b != kGround) residual[at(idx(br.b), l)] -= i0;
      }
    }
    // The swept resistor's exact per-lane current.
    if (swept_resistor()) {
      const auto& r = net.resistors()[swept.index];
      for (std::size_t l = 0; l < lanes; ++l) {
        if (converged[l]) continue;
        const double i0 =
            (volt(v, r.a, l) - volt(v, r.b, l)) / values[l];
        if (r.a != kGround) residual[at(idx(r.a), l)] += i0;
        if (r.b != kGround) residual[at(idx(r.b), l)] -= i0;
      }
    }
  }

  void gather(const std::vector<double>& soa, std::size_t l,
              std::vector<double>& out) const {
    for (std::size_t u = 0; u < num_nodes; ++u) out[u] = soa[at(u, l)];
  }
  void scatter(const std::vector<double>& in, std::size_t l,
               std::vector<double>& soa) const {
    for (std::size_t u = 0; u < num_nodes; ++u) soa[at(u, l)] = in[u];
  }

  /// Factor slot `s` at reference lane `ref`'s value and state, and (in the
  /// shared mode) register the rank-1 bridge direction for the other lanes.
  /// Returns false on a singular Jacobian.
  bool refresh(Slot& slot, std::size_t ref, double dt) {
    retarget(values[ref]);
    gather(v, ref, lane_v);
    gather(v_piece, ref, lane_prev);
    assemble_system(net, rows, run_params, source_v, dt, spec.gmin, {},
                    lane_v, lane_prev, a_scratch, rhs_scratch);
    ++refactorizations;
    if (!slot.ws.factor(a_scratch, num_free)) {
      slot.valid = false;
      return false;
    }
    slot.state = lane_v;
    slot.source_cols.clear();
    for (std::size_t r = 0; r < num_free; ++r)
      for (std::size_t k = 0; k < num_sources; ++k)
        if (const double a = a_scratch.at(r, num_free + k); a != 0.0)
          slot.source_cols.push_back({r, k, a});
    if (share_jacobian) {
      slot.ws.set_update_direction(swept_free);
      slot.g_ref = 1.0 / values[ref];
    }
    slot.valid = true;
    slot.fresh = true;
    return true;
  }

  /// A lane update above this raw |dv| is a "large move": a trajectory-
  /// shaping step that must be computed from a Jacobian assembled at (or
  /// very near) the lane's own current state, because a stale or far-away
  /// factorization can steer a bistable subcircuit into the *other* stable
  /// solution — converging cleanly to a state the scalar path never visits.
  /// Below the threshold Newton is locally contracting and the nearby root
  /// is unique, so frozen-factor polishing is safe.
  static constexpr double kLargeMove = 0.05;
  /// How far a lane's state may sit from a slot's assembly state for a
  /// large move computed through that slot to still be trusted. Lanes
  /// within this radius cluster around one factorization during the
  /// common-mode part of a stimulus edge; a lane whose defect-contested
  /// nodes sit further out factors its own Jacobian instead. Deliberately
  /// tight: sharing a Jacobian across visibly different states is exactly
  /// the mechanism that flips basins.
  static constexpr double kNearState = 0.01;

  double distance_to_slot(const Slot& slot, std::size_t l) const {
    double d = 0.0;
    for (std::size_t u = 0; u < num_nodes; ++u)
      d = std::max(d, std::fabs(v[at(u, l)] - slot.state[u]));
    return d;
  }

  /// One damped Newton update of lane `l`; always applies an update (there
  /// are no rollbacks: an untrustworthy proposal is recomputed within the
  /// same call). Returns false when the lane needs ejecting (its own
  /// Jacobian is singular).
  ///
  /// Trust ladder, cheapest first:
  ///  1. The lane's assigned slot (usually stale). Trusted for small moves;
  ///     the exact-residual convergence test keeps a stale factor honest.
  ///  2. Any slot factored *this iteration* whose assembly state is within
  ///     kNearState of this lane (shared mode): trusted even for large
  ///     moves, so one refresh serves a whole cluster of lanes riding the
  ///     same common-mode swing.
  ///  3. The lane's own freshly assembled Jacobian, solved exactly like
  ///     Simulator::solve_step (x = A^{-1} rhs, delta = x - v): the scalar
  ///     Newton map itself, trusted unconditionally.
  /// Stall detection: the lane solved last iteration but its scaled
  /// residual barely dropped — the frozen Jacobian has gone linearly
  /// convergent and stopped paying for itself. Such a lane skips straight
  /// to the own-state rung (what the scalar solver does every iteration).
  /// Residual decay demanded of a frozen-Jacobian iteration. A fresh factor
  /// converges quadratically (each polish iteration is nearly free residual
  /// decay), so a stale factor only pays for itself while it still shrinks
  /// the residual by a decent ratio; below that, one refactorization
  /// (~3 lane-iterations' cost) buys back many linear iterations.
  static constexpr double kStallRatio = 0.3;

  bool is_stalled(std::size_t l, const Slot& slot) const {
    return solved_last[l] && !slot.fresh &&
           res_norm[l] > kStallRatio * res_prev[l];
  }

  /// Load lane l's right-hand side through `slot`, whose swept conductance
  /// is dg below the lane's, into lane_vec: the negated free-row residual,
  /// less the slot's source columns times each source node's step
  /// (lane_step), less the lane's own dg share of a swept resistor that ties
  /// a free node to a source node. Block elimination of the lane's full
  /// system, so the solve yields the full system's free-node steps.
  void load_rhs(const Slot& slot, std::size_t l, double dg) {
    for (std::size_t r = 0; r < num_free; ++r)
      lane_vec[r] = -residual[at(rows.node(r), l)];
    for (const Slot::SourceEntry& e : slot.source_cols)
      lane_vec[e.row] -= e.a * lane_step[e.source];
    if (dg == 0.0 || swept_source.empty()) return;
    double coupled = 0.0;
    for (const auto& [row, coeff] : swept_source)
      coupled += coeff * lane_step[row - num_free];
    for (const auto& [row, coeff] : swept_free)
      lane_vec[row] -= dg * coeff * coupled;
  }

  bool solve_lane(std::size_t l, double dt) {
    // A source node steps to V(t) whichever rung serves the free nodes.
    for (std::size_t k = 0; k < num_sources; ++k)
      lane_step[k] = source_v[k] - v[at(rows.source_node(k), l)];
    Slot* slot = &slots[share_jacobian ? slot_of[l] : l];
    bool solved = false;
    if (slot->valid && !is_stalled(l, *slot)) {
      if (share_jacobian) {
        const double dg = 1.0 / values[l] - slot->g_ref;
        load_rhs(*slot, l, dg);
        // A false return (Sherman–Morrison denominator guard) falls through
        // to the own-Jacobian rung below.
        solved = slot->ws.solve_updated(dg, lane_vec);
      } else {
        load_rhs(*slot, l, 0.0);
        slot->ws.solve(lane_vec);
        solved = true;
      }
    }
    const auto worst_node = [&] {
      double worst = 0.0;
      for (const double d : lane_vec) worst = std::max(worst, std::fabs(d));
      for (const double d : lane_step) worst = std::max(worst, std::fabs(d));
      return worst;
    };
    double worst = solved ? worst_node() : 0.0;
    bool trusted =
        solved && (worst <= kLargeMove ||
                   (slot->fresh && distance_to_slot(*slot, l) <= kNearState));
    if (!trusted && share_jacobian) {
      // Rung 2: adopt a cluster-mate's fresh factorization.
      for (std::size_t s = 0; s < slots.size() && !trusted; ++s) {
        Slot& cand = slots[s];
        if (&cand == slot || !cand.valid || !cand.fresh) continue;
        if (distance_to_slot(cand, l) > kNearState) continue;
        const double dg = 1.0 / values[l] - cand.g_ref;
        load_rhs(cand, l, dg);
        if (!cand.ws.solve_updated(dg, lane_vec)) continue;
        slot_of[l] = s;
        slot = &cand;
        worst = worst_node();
        trusted = true;
      }
    }
    const bool avoided = trusted;  // no factorization of our own needed
    if (!trusted) {
      // Rung 3: the exact scalar Newton map from this lane's own state.
      Slot& own = slots[l];
      if (!refresh(own, l, dt)) return false;
      if (share_jacobian) slot_of[l] = l;
      slot = &own;
      // refresh() left a_scratch/rhs_scratch assembled at this lane's
      // state; solve for the next iterate directly, like the scalar path.
      std::copy(rhs_scratch.begin(),
                rhs_scratch.begin() + static_cast<long>(num_free),
                lane_vec.begin());
      own.ws.solve(lane_vec);  // lane_vec := x
      for (std::size_t r = 0; r < num_free; ++r)
        lane_vec[r] -= v[at(rows.node(r), l)];
      worst = worst_node();
    }
    // Damped update, exactly the scalar clamp schedule: every node voltage
    // is clamped, and the convergence norm uses the raw (unclamped) deltas.
    const double clamp = lane_iter[l] < 25 ? spec.damping : 0.1 * spec.damping;
    for (std::size_t r = 0; r < num_free; ++r)
      v[at(rows.node(r), l)] += std::clamp(lane_vec[r], -clamp, clamp);
    for (std::size_t k = 0; k < num_sources; ++k)
      v[at(rows.source_node(k), l)] += std::clamp(lane_step[k], -clamp, clamp);
    last_dv[l] = worst;
    ++lane_iter[l];
    ++stats[l].newton_iterations;
    if (avoided) ++refactor_avoided;
    return true;
  }

  /// Lockstep quasi-Newton for one substep piece ending at time t. Lanes
  /// that fail get piece_failed set (the caller ejects them to the scalar
  /// ladder); everything else ends converged with v updated and verified by
  /// the exact-residual test.
  void lockstep_piece(double t, double dt) {
    source_voltages(net, t, source_v);
    for (std::size_t l = 0; l < lanes; ++l) {
      converged[l] = dead[l] || piece_failed[l];
      res_prev[l] = std::numeric_limits<double>::infinity();
      solved_last[l] = 0;
      lane_iter[l] = 0;
    }
    // No up-front refresh: factorizations carried from the previous piece
    // keep serving as long as every proposed update stays small. The basin
    // guard lives in solve_lane's trust ladder, so a quiet clock phase costs
    // zero factorizations while a stimulus edge costs about one
    // factorization per *cluster* of nearby lanes per iteration.
    for (int iter = 0; iter < spec.max_newton; ++iter) {
      eval_residuals(dt);
      for (Slot& slot : slots) slot.fresh = false;
      bool all_done = true;
      for (std::size_t l = 0; l < lanes; ++l) {
        if (converged[l]) continue;
        const Slot& slot = slots[share_jacobian ? slot_of[l] : l];
        if (slot.valid) {
          double worst = 0.0;
          for (std::size_t r = 0; r < num_free; ++r)
            worst = std::max(worst, std::fabs(residual[at(rows.node(r), l)]) /
                                        slot.ws.row_norm(r));
          // A source node's constraint V - V(t) has a row norm of 1; its
          // KCL sum is the source's current, not a residual.
          for (std::size_t k = 0; k < num_sources; ++k)
            worst = std::max(worst, std::fabs(v[at(rows.source_node(k), l)] -
                                              source_v[k]));
          res_norm[l] = worst;
          if (worst < spec.vtol && last_dv[l] < spec.vtol) {
            converged[l] = 1;
            for (std::size_t k = 0; k < num_sources; ++k)
              current[k * lanes + l] = residual[at(rows.source_node(k), l)];
            continue;
          }
        }
        all_done = false;
      }
      if (all_done) return;

      for (std::size_t l = 0; l < lanes; ++l) {
        if (converged[l]) {
          solved_last[l] = 0;
          continue;
        }
        if (!solve_lane(l, dt)) {
          piece_failed[l] = 1;
          converged[l] = 1;
        } else {
          res_prev[l] = res_norm[l];
          solved_last[l] = 1;
        }
      }
    }
    // Newton budget exhausted: eject whatever is still open.
    for (std::size_t l = 0; l < lanes; ++l) {
      if (!converged[l]) piece_failed[l] = 1;
    }
  }

  /// Re-integrate the nominal interval starting at t for lane l with the
  /// scalar Simulator — the exact halving + rescue ladder of the
  /// non-batched path. Throws SolverError exactly like Simulator::run.
  void fallback_interval(std::size_t l, double t, bool edge_step) {
    Fallback& fb = fallbacks[l];
    if (!fb.sim) {
      fb.net = std::make_unique<Netlist>(net);
      if (swept_resistor())
        fb.net->set_resistor_ohms(swept.index, values[l]);
      else
        fb.net->set_breakdown_vbd(swept.index, values[l]);
      fb.sim = std::make_unique<Simulator>(*fb.net);
      for (const auto& [name, volts] : initial)
        fb.sim->set_initial(name, volts);
      fb.sim->prepare(spec);
    }
    gather(v_backup, l, lane_v);
    fb.sim->set_state(lane_v);
    fb.sim->advance_interval(t, spec, edge_step);
    scatter(fb.sim->state(), l, v);
    for (std::size_t k = 0; k < num_sources; ++k)
      current[k * lanes + l] = fb.sim->source_current(k);
    ++lane_ejections;
  }
};

}  // namespace

std::vector<LaneResult> BatchSimulator::run(
    const TransientSpec& spec, const std::vector<std::string>& record) {
  require(spec.t_stop > 0.0 && spec.dt > 0.0, "TransientSpec must be positive");
  {
    static metrics::Counter& transients = metrics::counter("analog.transients");
    static metrics::Counter& groups = metrics::counter("analog.batch_groups");
    static metrics::Counter& lanes_c = metrics::counter("analog.batch_lanes");
    transients.add(static_cast<long>(values_.size()));
    groups.add(1);
    lanes_c.add(static_cast<long>(values_.size()));
  }

  Runner r(net_, rows_, swept_, values_, spec, initial_);
  r.seed_state();

  const std::vector<std::size_t> record_index =
      resolve_record_signals(net_, record);
  const std::size_t num_nodes = rows_.nodes();

  const std::size_t lanes = values_.size();
  std::vector<LaneResult> results;
  results.reserve(lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    results.push_back(LaneResult{});
    results.back().trace = Trace(record);
  }
  std::vector<double> samples(record_index.size());
  const auto record_point = [&](std::size_t l, double t) {
    for (std::size_t i = 0; i < record_index.size(); ++i) {
      const std::size_t index = record_index[i];
      samples[i] = index < num_nodes
                       ? r.v[r.at(index, l)]
                       : r.current[(index - num_nodes) * lanes + l];
    }
    results[l].trace.append(t, samples);
  };
  for (std::size_t l = 0; l < lanes; ++l) record_point(l, 0.0);

  const std::vector<bool> has_edge = edge_step_flags(net_, spec);

  double t = 0.0;
  long step_index = 0;
  while (t < spec.t_stop - 0.5 * spec.dt) {
    const bool edge_step =
        step_index < static_cast<long>(has_edge.size()) &&
        has_edge[static_cast<std::size_t>(step_index)];
    const int pieces = edge_step ? std::max(1, spec.edge_substeps) : 1;
    const double h = spec.dt / pieces;
    // A step-size change moves every capacitor companion conductance:
    // invalidate the shared linear matrix and every cached factorization.
    if (!r.a_lin_valid || r.a_lin_dt != h) {
      r.build_a_lin(h);
      for (auto& slot : r.slots) slot.valid = false;
    }
    r.v_backup = r.v;
    std::fill(r.piece_failed.begin(), r.piece_failed.end(), 0);

    for (int piece = 1; piece <= pieces; ++piece) {
      r.lockstep_piece(t + piece * h, h);
      // Advance the BE history of the lanes that made it through.
      for (std::size_t l = 0; l < lanes; ++l) {
        if (r.dead[l] || r.piece_failed[l]) continue;
        for (std::size_t u = 0; u < num_nodes; ++u)
          r.v_piece[r.at(u, l)] = r.v[r.at(u, l)];
      }
    }

    for (std::size_t l = 0; l < lanes; ++l) {
      if (r.dead[l] || !r.piece_failed[l]) continue;
      try {
        r.fallback_interval(l, t, edge_step);
        for (std::size_t u = 0; u < num_nodes; ++u)
          r.v_piece[r.at(u, l)] = r.v[r.at(u, l)];
        // The fallback left this lane's state off the shared trajectory a
        // stale residual check must not trust blindly next piece.
        r.last_dv[l] = std::numeric_limits<double>::infinity();
      } catch (const SolverError& e) {
        r.dead[l] = 1;
        r.error[l] = e.reason();
      }
    }

    ++step_index;
    t += spec.dt;
    for (std::size_t l = 0; l < lanes; ++l) {
      if (r.dead[l]) continue;
      // Fallback intervals are stepped (and counted) by the lane's scalar
      // simulator; counting them here too would double-book.
      if (!r.piece_failed[l]) ++r.stats[l].steps;
      record_point(l, t);
    }
  }

  // Record each lane's outcome, and add its statistics (plus its fallback
  // simulator's) to the process counters.
  static metrics::Counter& steps_c = metrics::counter("analog.steps");
  static metrics::Counter& newton_c = metrics::counter("analog.newton_iterations");
  static metrics::Counter& halvings_c = metrics::counter("analog.halvings");
  static metrics::Counter& scalar_factorizations_c =
      metrics::counter("analog.scalar_factorizations");
  const auto count = [&](const Simulator::Stats& s) {
    steps_c.add(s.steps);
    newton_c.add(s.newton_iterations);
    halvings_c.add(s.halvings);
    scalar_factorizations_c.add(s.factorizations);
  };
  for (std::size_t l = 0; l < lanes; ++l) {
    results[l].ok = !r.dead[l];
    if (r.dead[l]) results[l].error = r.error[l];
    count(r.stats[l]);
    if (r.fallbacks[l].sim) count(r.fallbacks[l].sim->stats());
  }
  refactor_avoided_counter().add(r.refactor_avoided);
  refactorization_counter().add(r.refactorizations);
  lane_ejection_counter().add(r.lane_ejections);
  return results;
}

}  // namespace memstress::analog
