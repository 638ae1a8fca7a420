// Source-node elimination against the full modified nodal analysis it
// replaced. The reference below is the full-MNA assembly the engine used
// before grounded voltage sources left the Newton system: every node plus
// one branch-current unknown per source. Only its stamp for a source's
// negative terminal is gone, because Netlist::add_vsource now requires that
// terminal to be ground. At the same iterate, the reduced solve must match
// LuSolver's full solve, or where the system is ill-conditioned, be no less
// accurate than it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "analog/batch.hpp"
#include "analog/engine.hpp"
#include "defects/defect.hpp"
#include "layout/netnames.hpp"
#include "layout/critical_area.hpp"
#include "march/library.hpp"
#include "sram/block.hpp"
#include "tester/stimulus.hpp"

namespace memstress::analog {
namespace {

/// The full-MNA assembly the engine used before source-node elimination.
void assemble_full_mna(const Netlist& netlist,
                       const std::vector<MosParams>& run_params, double t,
                       double dt, double gmin,
                       const std::vector<double>& gmin_target,
                       const std::vector<double>& v,
                       const std::vector<double>& v_prev, DenseMatrix& a_,
                       std::vector<double>& rhs_) {
  const Netlist& netlist_ = netlist;
  const std::vector<MosParams>& run_params_ = run_params;
  const std::vector<double>& gmin_target_ = gmin_target;
  const std::size_t num_nodes_ = netlist.node_count() - 1;

  a_.set_zero();
  std::fill(rhs_.begin(), rhs_.end(), 0.0);

  const auto idx = [](NodeId n) { return static_cast<std::size_t>(n) - 1; };
  const auto voltage_of = [](const std::vector<double>& x, NodeId node) {
    return node == kGround ? 0.0 : x[static_cast<std::size_t>(node) - 1];
  };

  // gmin keeps floating nodes (e.g. behind an open) well-posed. During DC
  // gmin stepping the conductance pulls toward the initial guess instead of
  // ground, so large early gmin values do not erase the caller's chosen
  // basin (a bistable latch would otherwise land on its metastable point).
  for (std::size_t n = 0; n < num_nodes_; ++n) {
    a_.add(n, n, gmin);
    if (!gmin_target_.empty()) rhs_[n] += gmin * gmin_target_[n];
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

  // Voltage sources: branch current unknowns after the node block.
  const auto& sources = netlist_.vsources();
  for (std::size_t k = 0; k < sources.size(); ++k) {
    const auto& src = sources[k];
    const std::size_t br = num_nodes_ + k;
    if (src.pos != kGround) {
      a_.add(idx(src.pos), br, 1.0);
      a_.add(br, idx(src.pos), 1.0);
    }
    rhs_[br] = src.wave.value(t);
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
}

/// A Newton system in full-MNA form: every node, then one branch-current
/// unknown per source (flowing into its positive terminal).
struct FullSystem {
  DenseMatrix a;
  std::vector<double> rhs;
};

FullSystem assemble_full(const Netlist& net,
                         const std::vector<MosParams>& params, double t,
                         double dt, double gmin,
                         const std::vector<double>& gmin_target,
                         const std::vector<double>& v,
                         const std::vector<double>& v_prev) {
  const std::size_t n = v.size() + net.vsources().size();
  std::vector<double> v_full(v), prev_full(v_prev);
  v_full.resize(n, 0.0);
  prev_full.resize(n, 0.0);
  FullSystem full{DenseMatrix(n), std::vector<double>(n, 0.0)};
  assemble_full_mna(net, params, t, dt, gmin, gmin_target, v_full, prev_full,
                    full.a, full.rhs);
  return full;
}

std::vector<double> solve_full(const FullSystem& full) {
  LuSolver lu;
  EXPECT_TRUE(lu.factor(full.a));
  std::vector<double> x = full.rhs;
  lu.solve(x);
  return x;
}

/// Solve the reduced system at the same iterate and return the solution in
/// full-MNA form: free nodes from the solve, source nodes at V(t), and each
/// branch current from its node's KCL row applied to that solution.
std::vector<double> solve_reduced(const Netlist& net,
                                  const std::vector<MosParams>& params,
                                  double t, double dt, double gmin,
                                  const std::vector<double>& gmin_target,
                                  const std::vector<double>& v,
                                  const std::vector<double>& v_prev) {
  const RowMap rows(net);
  std::vector<double> source_v;
  source_voltages(net, t, source_v);
  DenseMatrix a(rows.nodes());
  std::vector<double> rhs(rows.nodes(), 0.0);
  assemble_system(net, rows, params, source_v, dt, gmin, gmin_target, v,
                  v_prev, a, rhs);
  LuSolver lu;
  EXPECT_TRUE(lu.factor(a, rows.free()));
  std::vector<double> x(rhs.begin(),
                        rhs.begin() + static_cast<long>(rows.free()));
  lu.solve(x);
  std::vector<double> solution(rows.nodes());
  for (std::size_t r = 0; r < rows.free(); ++r) solution[rows.node(r)] = x[r];
  for (std::size_t k = 0; k < source_v.size(); ++k)
    solution[rows.source_node(k)] = source_v[k];
  for (std::size_t k = 0; k < source_v.size(); ++k)
    solution.push_back(-source_current(rows, a, rhs, k, solution));
  return solution;
}

/// The full system solved by Gaussian elimination with partial pivoting in
/// long double: a reference with more digits than either double solve.
std::vector<double> solve_full_long_double(const FullSystem& full) {
  const std::size_t n = full.rhs.size();
  std::vector<long double> m(n * n), b(full.rhs.begin(), full.rhs.end());
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) m[i * n + j] = full.a.at(i, j);
  for (std::size_t k = 0; k < n; ++k) {
    std::size_t p = k;
    for (std::size_t i = k + 1; i < n; ++i)
      if (std::fabs(m[i * n + k]) > std::fabs(m[p * n + k])) p = i;
    for (std::size_t j = 0; j < n; ++j) std::swap(m[k * n + j], m[p * n + j]);
    std::swap(b[k], b[p]);
    for (std::size_t i = k + 1; i < n; ++i) {
      const long double f = m[i * n + k] / m[k * n + k];
      for (std::size_t j = k; j < n; ++j) m[i * n + j] -= f * m[k * n + j];
      b[i] -= f * b[k];
    }
  }
  for (std::size_t k = n; k-- > 0;) {
    long double sum = b[k];
    for (std::size_t j = k + 1; j < n; ++j) sum -= m[k * n + j] * b[j];
    b[k] = sum / m[k * n + k];
  }
  return {b.begin(), b.end()};
}

/// Scale of source k's KCL row at solution x: sum_j |A_pj x_j| + |b_p|. A
/// source current is a sum whose terms can cancel (a gate-only source
/// carries pA against uA capacitor terms), so it is compared at this scale.
double kcl_scale(const FullSystem& full, const RowMap& rows, std::size_t k,
                 const std::vector<double>& x) {
  const std::size_t row = rows.source_node(k);
  double scale = std::fabs(full.rhs[row]);
  for (std::size_t j = 0; j < x.size(); ++j)
    scale += std::fabs(full.a.at(row, j) * x[j]);
  return scale;
}

/// The largest difference between two solutions: over the free-node
/// voltages relative to the largest node voltage, and over the source
/// currents relative to their KCL rows' scale.
double difference(const Netlist& net, const FullSystem& full,
                  const std::vector<double>& ref,
                  const std::vector<double>& x) {
  const RowMap rows(net);
  double v_scale = 0.0;
  for (std::size_t u = 0; u < rows.nodes(); ++u)
    v_scale = std::max(v_scale, std::fabs(ref[u]));
  double worst = 0.0;
  for (std::size_t r = 0; r < rows.free(); ++r) {
    const std::size_t u = rows.node(r);
    worst = std::max(worst, std::fabs(ref[u] - x[u]) / v_scale);
  }
  for (std::size_t k = 0; k < net.vsources().size(); ++k) {
    const std::size_t branch = rows.nodes() + k;
    worst = std::max(worst, std::fabs(ref[branch] - x[branch]) /
                                kcl_scale(full, rows, k, ref));
  }
  return worst;
}

/// The standard 2x1 block with a 30 kOhm cell true-false bridge, driven by
/// the 11N march at 1.8 V / 25 ns.
struct BridgedBlock {
  sram::BlockSpec spec{.rows = 2, .cols = 1};
  Netlist net;
  std::vector<MosParams> params;

  BridgedBlock() : net(sram::build_block(spec)) {
    defects::inject(net, defects::representative_bridge(
                             layout::BridgeCategory::CellTrueFalse, spec,
                             30e3));
    tester::compile_march(net, spec, march::test_11n(), {1.8, 25e-9});
    for (const auto& m : net.mosfets()) params.push_back(m.params);
  }
};

TEST(SourceElimination, TheBlockSolvesFor26NodeVoltages) {
  const BridgedBlock block;
  const RowMap rows(block.net);
  EXPECT_EQ(rows.nodes(), 34u);
  EXPECT_EQ(rows.free(), 26u);
  for (std::size_t k = 0; k < block.net.vsources().size(); ++k)
    EXPECT_EQ(rows.source_node(k) + 1,
              static_cast<std::size_t>(block.net.vsources()[k].pos));
}

TEST(SourceElimination, MatchesFullMnaTwentyStepsIntoATransient) {
  const BridgedBlock block;
  Simulator sim(block.net);
  tester::seed_block_state(sim, block.net, block.spec, 1.8);
  TransientSpec spec;
  spec.dt = 25e-9 / 16;
  spec.t_stop = 40 * spec.dt;
  sim.prepare(spec);
  for (int step = 0; step < 20; ++step)
    sim.advance_interval(step * spec.dt, spec, false);
  // The first Newton iteration of step 21, from the accepted step 20.
  const std::vector<double> v = sim.state();
  const double t = 21 * spec.dt;
  const FullSystem full = assemble_full(block.net, block.params, t, spec.dt,
                                        spec.gmin, {}, v, v);
  EXPECT_LE(difference(block.net, full, solve_full(full),
                       solve_reduced(block.net, block.params, t, spec.dt,
                                     spec.gmin, {}, v, v)),
            1e-12);
}

TEST(SourceElimination, LosesNoAccuracyAtADcPoint) {
  const BridgedBlock block;
  Simulator sim(block.net);
  tester::seed_block_state(sim, block.net, block.spec, 1.8);
  sim.prepare(TransientSpec{.t_stop = 1e-9});
  // solve_dc's last gmin stage: capacitors open, 1e-12 S pulling toward the
  // starting point. Nodes such as bl0 then hang on leakage, so the system is
  // ill-conditioned and the full system's own double-precision solve is off
  // by ~1e-11 relative. Both solves are measured against a long-double one;
  // the reduced solve may be no further from it.
  const std::vector<double> v = sim.state();
  constexpr double kDcDt = 1e30;
  const FullSystem full =
      assemble_full(block.net, block.params, 0.0, kDcDt, 1e-12, v, v, v);
  const std::vector<double> truth = solve_full_long_double(full);
  const double full_error =
      difference(block.net, full, truth, solve_full(full));
  const double reduced_error = difference(
      block.net, full, truth,
      solve_reduced(block.net, block.params, 0.0, kDcDt, 1e-12, v, v, v));
  EXPECT_LE(reduced_error, std::max(1e-12, full_error))
      << "full-MNA solve error " << full_error;
}

TEST(SourceElimination, BatchedBridgeToASourceNodeTracksScalar) {
  // A swept bridge from a storage node to the precharge control ties a free
  // node to a source node that switches every cycle: its free end is the
  // Sherman–Morrison direction, and a lane's conductance difference reaches
  // the right-hand side through the control's step. Each lane's waveform
  // and source currents must follow a scalar run at the lane's resistance.
  const sram::BlockSpec spec{.rows = 2, .cols = 1};
  const sram::StressPoint at{1.8, 25e-9};
  const std::vector<double> lane_r{10e3, 30e3};
  const std::string q0 = layout::net_q(0);
  const auto with_bridge = [&](double r) {
    Netlist net = sram::build_block(spec);
    net.add_resistor("bridge", net.find_node(q0), net.find_node("pre"), r);
    tester::compile_march(net, spec, march::test_11n(), at);
    return net;
  };
  const std::vector<std::string> record{q0, "I(PRE)", "I(VDD)"};
  TransientSpec tspec;
  tspec.t_stop = 4 * at.period;
  tspec.dt = at.period / 96;

  const Netlist family = with_bridge(lane_r.back());
  BatchSimulator bsim(family,
                      {SweptElement::Kind::ResistorOhms,
                       family.resistors().size() - 1},
                      lane_r);
  for (const auto& [name, volts] :
       tester::initial_block_state(family, spec, at.vdd))
    bsim.set_initial(name, volts);
  const std::vector<LaneResult> lanes = bsim.run(tspec, record);

  for (std::size_t l = 0; l < lane_r.size(); ++l) {
    ASSERT_TRUE(lanes[l].ok) << lanes[l].error;
    const Netlist net = with_bridge(lane_r[l]);
    Simulator sim(net);
    tester::seed_block_state(sim, net, spec, at.vdd);
    const Trace scalar = sim.run(tspec, record);
    const Trace& batched = lanes[l].trace;
    ASSERT_EQ(scalar.sample_count(), batched.sample_count());
    for (std::size_t i = 0; i < record.size(); ++i) {
      double diff = 0.0, scale = 0.0;
      for (std::size_t k = 0; k < scalar.sample_count(); ++k) {
        diff = std::max(diff, std::fabs(scalar.samples(i)[k] -
                                        batched.samples(i)[k]));
        scale = std::max(scale, std::fabs(scalar.samples(i)[k]));
      }
      // Newton tolerance is 1e-6 V; allow a couple of orders of slack for
      // tolerance-level differences compounding over the transient.
      EXPECT_LT(diff, 1e-4 * scale) << record[i] << ", lane " << l;
    }
  }
}

}  // namespace
}  // namespace memstress::analog
