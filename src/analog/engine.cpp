#include "analog/engine.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "util/metrics.hpp"

namespace memstress::analog {

const char* solver_failure_name(SolverFailure failure) {
  switch (failure) {
    case SolverFailure::NewtonNonConvergence: return "newton-non-convergence";
    case SolverFailure::SingularMatrix: return "singular-matrix";
  }
  return "unknown";
}

namespace {

/// Fold one run's Stats into the process-wide counters (one atomic add per
/// statistic per transient, so the simulator's inner loops stay untouched).
void count_run(const Simulator::Stats& stats) {
  static metrics::Counter& steps = metrics::counter("analog.steps");
  static metrics::Counter& newton =
      metrics::counter("analog.newton_iterations");
  static metrics::Counter& halvings = metrics::counter("analog.halvings");
  static metrics::Counter& factorizations =
      metrics::counter("analog.scalar_factorizations");
  steps.add(stats.steps);
  newton.add(stats.newton_iterations);
  halvings.add(stats.halvings);
  factorizations.add(stats.factorizations);
}

}  // namespace

RowMap::RowMap(const Netlist& netlist) {
  const std::size_t nodes = netlist.node_count() - 1;  // ground eliminated
  constexpr std::size_t kUnset = static_cast<std::size_t>(-1);
  row_of_node_.assign(nodes, kUnset);
  const auto& sources = netlist.vsources();
  free_ = nodes - sources.size();
  for (std::size_t k = 0; k < sources.size(); ++k)
    row_of_node_[static_cast<std::size_t>(sources[k].pos) - 1] = free_ + k;
  node_of_row_.assign(nodes, 0);
  std::size_t next = 0;
  for (std::size_t u = 0; u < nodes; ++u) {
    if (row_of_node_[u] == kUnset) row_of_node_[u] = next++;
    node_of_row_[row_of_node_[u]] = u;
  }
}

void source_voltages(const Netlist& netlist, double t,
                     std::vector<double>& out) {
  const auto& sources = netlist.vsources();
  out.resize(sources.size());
  for (std::size_t k = 0; k < sources.size(); ++k)
    out[k] = sources[k].wave.value(t);
}

Simulator::Simulator(const Netlist& netlist)
    : netlist_(netlist), rows_(netlist) {
  a_.resize(rows_.nodes());
  rhs_.assign(rows_.nodes(), 0.0);
}

void Simulator::set_initial(NodeId node, double volts) {
  require(node != kGround, "Simulator::set_initial: ground is fixed at 0 V");
  initial_[node] = volts;
}

void Simulator::set_initial(const std::string& node_name, double volts) {
  set_initial(netlist_.find_node(node_name), volts);
}

void assemble_system(const Netlist& netlist, const RowMap& rows,
                     const std::vector<MosParams>& run_params,
                     const std::vector<double>& source_v, double dt,
                     double gmin, const std::vector<double>& gmin_target,
                     const std::vector<double>& v,
                     const std::vector<double>& v_prev, DenseMatrix& a_,
                     std::vector<double>& rhs_) {
  const Netlist& netlist_ = netlist;
  const std::vector<MosParams>& run_params_ = run_params;
  const std::vector<double>& gmin_target_ = gmin_target;
  const std::size_t num_nodes_ = rows.nodes();

  a_.set_zero();
  std::fill(rhs_.begin(), rhs_.end(), 0.0);

  const auto idx = [&rows](NodeId n) {
    return rows.row(static_cast<std::size_t>(n) - 1);
  };
  const auto voltage_of = [](const std::vector<double>& x, NodeId node) {
    return node == kGround ? 0.0 : x[static_cast<std::size_t>(node) - 1];
  };

  // gmin keeps floating nodes (e.g. behind an open) well-posed. During DC
  // gmin stepping the conductance pulls toward the initial guess instead of
  // ground, so large early gmin values do not erase the caller's chosen
  // basin (a bistable latch would otherwise land on its metastable point).
  for (std::size_t n = 0; n < num_nodes_; ++n) {
    const std::size_t r = rows.row(n);
    a_.add(r, r, gmin);
    if (!gmin_target_.empty()) rhs_[r] += gmin * gmin_target_[n];
  }

  for (const auto& r : netlist_.resistors()) {
    const double g = 1.0 / r.ohms;
    if (r.a != kGround) a_.add(idx(r.a), idx(r.a), g);
    if (r.b != kGround) a_.add(idx(r.b), idx(r.b), g);
    if (r.a != kGround && r.b != kGround) {
      a_.add(idx(r.a), idx(r.b), -g);
      a_.add(idx(r.b), idx(r.a), -g);
    }
  }

  // Backward-Euler capacitor companion: g = C/dt, Ieq = g * Vc(prev).
  for (const auto& c : netlist_.capacitors()) {
    const double g = c.farads / dt;
    const double v_hist = voltage_of(v_prev, c.a) - voltage_of(v_prev, c.b);
    const double ieq = g * v_hist;  // flows a -> b inside the companion source
    if (c.a != kGround) {
      a_.add(idx(c.a), idx(c.a), g);
      rhs_[idx(c.a)] += ieq;
    }
    if (c.b != kGround) {
      a_.add(idx(c.b), idx(c.b), g);
      rhs_[idx(c.b)] -= ieq;
    }
    if (c.a != kGround && c.b != kGround) {
      a_.add(idx(c.a), idx(c.b), -g);
      a_.add(idx(c.b), idx(c.a), -g);
    }
  }

  // Breakdown bridges: two-terminal nonlinear I(v), linearized around the
  // current iterate.
  for (const auto& br : netlist_.breakdowns()) {
    const double vbr = voltage_of(v, br.a) - voltage_of(v, br.b);
    const double i0 = br.current(vbr);
    constexpr double kBrFd = 1e-5;
    const double g =
        (br.current(vbr + kBrFd) - br.current(vbr - kBrFd)) / (2 * kBrFd);
    const double ieq = i0 - g * vbr;  // I ~= ieq + g * (Va - Vb)
    if (br.a != kGround) {
      a_.add(idx(br.a), idx(br.a), g);
      rhs_[idx(br.a)] -= ieq;
    }
    if (br.b != kGround) {
      a_.add(idx(br.b), idx(br.b), g);
      rhs_[idx(br.b)] += ieq;
    }
    if (br.a != kGround && br.b != kGround) {
      a_.add(idx(br.a), idx(br.b), -g);
      a_.add(idx(br.b), idx(br.a), -g);
    }
  }

  // MOSFETs: linearize I(vd, vg, vs) around the current iterate by central
  // finite differences (one evaluation point is shared). The parameters
  // were temperature-adjusted once at the start of the run.
  constexpr double kFdStep = 1e-5;
  const auto& mosfets = netlist_.mosfets();
  for (std::size_t mi = 0; mi < mosfets.size(); ++mi) {
    const auto& m = mosfets[mi];
    const MosParams& params = run_params_[mi];
    const double vd = voltage_of(v, m.d);
    const double vg = voltage_of(v, m.g);
    const double vs = voltage_of(v, m.s);
    const double i0 = mos_current(m.type, params, vd, vg, vs);
    const double gd = (mos_current(m.type, params, vd + kFdStep, vg, vs) -
                       mos_current(m.type, params, vd - kFdStep, vg, vs)) /
                      (2 * kFdStep);
    const double gg = (mos_current(m.type, params, vd, vg + kFdStep, vs) -
                       mos_current(m.type, params, vd, vg - kFdStep, vs)) /
                      (2 * kFdStep);
    const double gs = (mos_current(m.type, params, vd, vg, vs + kFdStep) -
                       mos_current(m.type, params, vd, vg, vs - kFdStep)) /
                      (2 * kFdStep);
    // KCL: +I leaves node d, enters node s. Linear model:
    //   I ~= i0 + gd*(Vd - vd) + gg*(Vg - vg) + gs*(Vs - vs)
    const double ieq = i0 - gd * vd - gg * vg - gs * vs;
    auto stamp_row = [&](NodeId row_node, double sign) {
      if (row_node == kGround) return;
      const std::size_t row = idx(row_node);
      if (m.d != kGround) a_.add(row, idx(m.d), sign * gd);
      if (m.g != kGround) a_.add(row, idx(m.g), sign * gg);
      if (m.s != kGround) a_.add(row, idx(m.s), sign * gs);
      rhs_[row] -= sign * ieq;
    };
    stamp_row(m.d, +1.0);
    stamp_row(m.s, -1.0);
  }

  // Source columns: each source node's voltage is known, so its column
  // moves to the free rows' right-hand side.
  const std::size_t num_free = rows.free();
  for (std::size_t r = 0; r < num_free; ++r)
    for (std::size_t k = 0; k < source_v.size(); ++k)
      rhs_[r] -= a_.at(r, num_free + k) * source_v[k];
}

double source_current(const RowMap& rows, const DenseMatrix& a,
                      const std::vector<double>& rhs, std::size_t k,
                      const std::vector<double>& v) {
  const std::size_t row = rows.free() + k;
  double current = -rhs[row];
  for (std::size_t c = 0; c < rows.nodes(); ++c)
    current += a.at(row, c) * v[rows.node(c)];
  return current;
}

bool Simulator::solve_step(double t, double dt, const TransientSpec& spec,
                           const std::vector<double>& v_prev,
                           std::vector<double>& v, double damping,
                           int max_newton) {
  const std::size_t num_free = rows_.free();
  source_voltages(netlist_, t, source_v_);
  // The Newton target of the node at row r: the solve's value for a free
  // node, the source's voltage for a driven one.
  std::vector<double> x(num_free);
  const auto target = [&](std::size_t r) {
    return r < num_free ? x[r] : source_v_[r - num_free];
  };
  for (int iter = 0; iter < max_newton; ++iter) {
    ++stats_.newton_iterations;
    assemble_system(netlist_, rows_, run_params_, source_v_, dt, spec.gmin,
                    gmin_target_, v, v_prev, a_, rhs_);
    ++stats_.factorizations;
    if (!lu_.factor(a_, num_free)) {
      stats_.last_failure = "singular Jacobian at t=" + std::to_string(t);
      stats_.last_failure_kind = SolverFailure::SingularMatrix;
      return false;
    }
    std::copy(rhs_.begin(), rhs_.begin() + static_cast<long>(num_free),
              x.begin());
    lu_.solve(x);
    // Progressive damping: strongly nonlinear devices (breakdown bridges)
    // can make full-size Newton steps oscillate across a kink; shrinking
    // the clamp after a while forces the iteration to settle.
    const double clamp = iter < 25 ? damping : 0.1 * damping;
    double worst = 0.0;
    for (std::size_t r = 0; r < rows_.nodes(); ++r) {
      double& node_v = v[rows_.node(r)];
      const double delta = target(r) - node_v;
      worst = std::max(worst, std::fabs(delta));
      node_v += std::clamp(delta, -clamp, clamp);
    }
    if (worst < spec.vtol) return true;
    if (iter == max_newton - 1) {
      // Record which node refused to settle, for diagnostics.
      std::size_t worst_i = 0;
      double worst_d = 0.0;
      for (std::size_t i = 0; i < rows_.nodes(); ++i) {
        const double d = std::fabs(target(rows_.row(i)) - v[i]);
        if (d > worst_d) {
          worst_d = d;
          worst_i = i;
        }
      }
      stats_.last_failure =
          "node " + netlist_.node_name(static_cast<NodeId>(worst_i + 1)) +
          " delta " + std::to_string(worst_d) + " at t=" + std::to_string(t);
      stats_.last_failure_kind = SolverFailure::NewtonNonConvergence;
    }
  }
  return false;
}

std::vector<std::size_t> resolve_record_signals(
    const Netlist& netlist, const std::vector<std::string>& record) {
  const std::size_t num_nodes = netlist.node_count() - 1;
  std::vector<std::size_t> index;
  index.reserve(record.size());
  for (const auto& name : record) {
    if (name.size() > 3 && name.rfind("I(", 0) == 0 && name.back() == ')') {
      const std::string source_name = name.substr(2, name.size() - 3);
      const auto& sources = netlist.vsources();
      std::size_t k = 0;
      while (k < sources.size() && sources[k].name != source_name) ++k;
      require(k < sources.size(),
              "Simulator: unknown source in record entry " + name);
      index.push_back(num_nodes + k);
    } else {
      const NodeId node = netlist.find_node(name);
      require(node != kGround, "Simulator: cannot record the ground node");
      index.push_back(static_cast<std::size_t>(node) - 1);
    }
  }
  return index;
}

Trace Simulator::solve_dc(const std::vector<std::string>& record, double temp_c) {
  {
    static metrics::Counter& dc_solves = metrics::counter("analog.dc_solves");
    dc_solves.add(1);
  }
  const std::vector<std::size_t> record_index =
      resolve_record_signals(netlist_, record);

  run_params_.clear();
  run_params_.reserve(netlist_.mosfets().size());
  for (const auto& m : netlist_.mosfets())
    run_params_.push_back(temp_c == 25.0 ? m.params
                                         : at_temperature(m.params, temp_c));

  std::vector<double> v(rows_.nodes(), 0.0);
  for (const auto& [node, volts] : initial_)
    v[static_cast<std::size_t>(node) - 1] = volts;
  for (const auto& src : netlist_.vsources())
    v[static_cast<std::size_t>(src.pos) - 1] = src.wave.value(0.0);

  // gmin stepping: successively tighten the conductance floor, reusing the
  // previous solution as the next starting point. The enormous dt makes
  // every capacitor companion vanish (open circuit at DC); the gmin pulls
  // toward the initial guess so the caller's basin survives the early,
  // strong steps.
  constexpr double kDcDt = 1e30;
  gmin_target_ = v;
  bool converged = false;
  for (const double gmin : {1e-2, 1e-4, 1e-6, 1e-9, 1e-12}) {
    TransientSpec spec;
    spec.t_stop = 1.0;  // unused; keeps the spec self-consistent
    spec.dt = kDcDt;
    spec.gmin = gmin;
    converged = solve_step(0.0, kDcDt, spec, v, v, 0.3, 400);
  }
  gmin_target_.clear();
  if (!converged)
    throw SolverError(stats_.last_failure_kind,
                      "solve_dc: Newton failed at the final gmin (" +
                          stats_.last_failure + ")");

  state_ = std::move(v);
  Trace trace(record);
  std::vector<double> samples(record_index.size());
  for (std::size_t i = 0; i < record_index.size(); ++i)
    samples[i] = signal(record_index[i]);
  trace.append(0.0, samples);
  return trace;
}

std::vector<bool> edge_step_flags(const Netlist& netlist,
                                  const TransientSpec& spec) {
  // Event awareness: mark the nominal steps that contain a stimulus
  // breakpoint so they are integrated with fine substeps.
  const long n_steps = static_cast<long>(spec.t_stop / spec.dt + 0.5);
  std::vector<bool> has_edge(static_cast<std::size_t>(n_steps) + 1, false);
  for (const auto& src : netlist.vsources()) {
    for (const double bp : src.wave.breakpoint_times()) {
      if (bp <= 0.0 || bp >= spec.t_stop) continue;
      const long step = static_cast<long>(bp / spec.dt);
      if (step >= 0 && step <= n_steps) {
        has_edge[static_cast<std::size_t>(step)] = true;
        // Edges right at a grid point also affect the following step.
        if (step + 1 <= n_steps &&
            bp - step * spec.dt > 0.75 * spec.dt)
          has_edge[static_cast<std::size_t>(step) + 1] = true;
      }
    }
  }
  return has_edge;
}

void Simulator::prepare(const TransientSpec& spec) {
  stats_ = Stats{};

  run_params_.clear();
  run_params_.reserve(netlist_.mosfets().size());
  for (const auto& m : netlist_.mosfets())
    run_params_.push_back(spec.temp_c == 25.0 ? m.params
                                              : at_temperature(m.params, spec.temp_c));

  // State vector: node voltages, seeded from ICs.
  state_.assign(rows_.nodes(), 0.0);
  for (const auto& [node, volts] : initial_)
    state_[static_cast<std::size_t>(node) - 1] = volts;
  // Sources pin their nodes from the very first instant: seed them so the
  // capacitor history at t=0 is consistent with the stimulus.
  for (const auto& src : netlist_.vsources())
    state_[static_cast<std::size_t>(src.pos) - 1] = src.wave.value(0.0);
  // No Newton iteration has run yet, so every source current reads 0.
  a_.set_zero();
  std::fill(rhs_.begin(), rhs_.end(), 0.0);
}

void Simulator::set_state(const std::vector<double>& v) {
  require(v.size() == rows_.nodes(), "Simulator::set_state dimension mismatch");
  state_ = v;
}

void Simulator::advance_interval(double t, const TransientSpec& spec,
                                 bool edge_step) {
  // Try a full nominal step; on Newton failure, re-integrate the interval
  // with halved substeps (local, so the recorded grid stays uniform).
  std::vector<double>& v = state_;
  const std::vector<double> v_backup = v;
  bool done = false;
  int base_pieces = 1;
  if (edge_step) {
    base_pieces = std::max(1, spec.edge_substeps);
  }
  int halvings = 0;
  bool rescue = false;
  while (!done) {
    const int pieces = base_pieces * (1 << halvings);
    const double h = spec.dt / pieces;
    // Rescue pass: bistable flips (a gross defect overpowering a latch)
    // can defeat plain damped Newton at any step size; a tiny clamp with
    // a large iteration budget creeps monotonically into the new basin.
    const double damping = rescue ? 0.02 : spec.damping;
    const int max_newton = rescue ? 4000 : spec.max_newton;
    bool ok = true;
    v = v_backup;
    std::vector<double> v_hist = v_backup;
    for (int piece = 1; piece <= pieces && ok; ++piece) {
      ok = solve_step(t + piece * h, h, spec, v_hist, v, damping, max_newton);
      v_hist = v;
    }
    // In rescue mode allow much deeper halving: with a small enough step
    // the backward-Euler companion conductance C/h dominates every device
    // transconductance and the Jacobian cannot go singular even at the
    // fold point of a flipping latch.
    const int halving_limit = rescue ? 14 : spec.max_halvings;
    if (ok) {
      done = true;
    } else if (halvings < halving_limit) {
      ++halvings;
      ++stats_.halvings;
    } else {
      if (rescue)
        throw SolverError(stats_.last_failure_kind,
                          "Simulator: Newton failed to converge at t = " +
                              std::to_string(t) + " (" +
                              stats_.last_failure + ")");
      rescue = true;
      halvings = 6;
    }
  }
  ++stats_.steps;
}

Trace Simulator::run(const TransientSpec& spec, const std::vector<std::string>& record) {
  require(spec.t_stop > 0.0 && spec.dt > 0.0, "TransientSpec must be positive");
  {
    static metrics::Counter& transients = metrics::counter("analog.transients");
    transients.add(1);
  }
  prepare(spec);

  const std::vector<std::size_t> record_index =
      resolve_record_signals(netlist_, record);
  Trace trace(record);

  std::vector<double> samples(record_index.size());
  auto record_point = [&](double t) {
    for (std::size_t i = 0; i < record_index.size(); ++i)
      samples[i] = signal(record_index[i]);
    trace.append(t, samples);
  };
  record_point(0.0);

  const std::vector<bool> has_edge = edge_step_flags(netlist_, spec);

  double t = 0.0;
  long step_index = 0;
  while (t < spec.t_stop - 0.5 * spec.dt) {
    const bool edge_step =
        step_index < static_cast<long>(has_edge.size()) &&
        has_edge[static_cast<std::size_t>(step_index)];
    advance_interval(t, spec, edge_step);
    ++step_index;
    t += spec.dt;
    record_point(t);
  }
  count_run(stats_);
  return trace;
}

}  // namespace memstress::analog
