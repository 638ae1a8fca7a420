// Flat transistor-level netlist representation.
//
// The netlist is the hand-off point of the IFA flow: the SRAM builders
// (src/sram) generate a fault-free netlist, the defect injectors
// (src/defects) perturb it — a *bridge* adds a resistor between two nodes,
// an *open* raises the resistance of a named "joint" (a designated
// connection segment) — and the engine (engine.hpp) simulates it. Every
// voltage source drives one node of its own against ground, which
// add_vsource checks: the engine takes such a node's voltage as a known
// input and solves only for the other nodes.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "analog/mos_model.hpp"
#include "analog/waveform.hpp"

namespace memstress::analog {

/// Node handle. Node 0 is always ground ("0").
using NodeId = int;
inline constexpr NodeId kGround = 0;

struct Resistor {
  std::string name;
  NodeId a = kGround;
  NodeId b = kGround;
  double ohms = 0.0;
};

struct Capacitor {
  std::string name;
  NodeId a = kGround;
  NodeId b = kGround;
  double farads = 0.0;
};

/// A voltage source from node `pos` to ground. The engine takes `pos` as a
/// known input, wave(t), rather than an unknown of its Newton solve.
struct VSource {
  std::string name;
  NodeId pos = kGround;
  PwlWaveform wave;
};

struct Mosfet {
  std::string name;
  MosType type = MosType::Nmos;
  NodeId d = kGround;
  NodeId g = kGround;
  NodeId s = kGround;
  MosParams params;
};

/// Threshold-conducting bridge (gate-oxide pinhole / soft breakdown): no
/// conduction below the breakdown voltage, ohmic with resistance `ohms`
/// above it, symmetric in polarity and smooth for the Newton solver:
///   I(v) = (sp(v - vbd) - sp(-v - vbd)) / ohms,
///   sp(x) = 0.5 * (x + sqrt(x^2 + 4 s^2)).
struct BreakdownResistor {
  std::string name;
  NodeId a = kGround;
  NodeId b = kGround;
  double ohms = 0.0;
  double vbd = 0.0;
  double smooth = 0.01;

  /// Current flowing a -> b at voltage v = Va - Vb.
  double current(double v) const;
};

/// BreakdownResistor::current with an explicit breakdown voltage, for the
/// batched kernel where vbd is the per-lane swept quantity and the shared
/// netlist element holds only the reference value.
double breakdown_current(double v, double ohms, double vbd, double smooth);

class Netlist {
 public:
  Netlist();

  /// Get or create the node with this name. "0" and "gnd" are ground.
  NodeId node(const std::string& name);

  /// Look up an existing node; throws Error if absent.
  NodeId find_node(const std::string& name) const;
  bool has_node(const std::string& name) const;
  const std::string& node_name(NodeId id) const;

  /// Total node count including ground.
  std::size_t node_count() const { return names_.size(); }

  void add_resistor(const std::string& name, NodeId a, NodeId b, double ohms);
  void add_capacitor(const std::string& name, NodeId a, NodeId b, double farads);
  /// A source's negative terminal must be ground, and its positive terminal
  /// a node that no other source drives; Error names the source otherwise.
  void add_vsource(const std::string& name, NodeId pos, NodeId neg, PwlWaveform wave);
  void add_mosfet(const std::string& name, MosType type, NodeId d, NodeId g, NodeId s,
                  const MosParams& params);
  void add_breakdown(const std::string& name, NodeId a, NodeId b, double ohms,
                     double vbd);

  /// A *joint* is a nominally-perfect connection (modelled as `kJointOhms`)
  /// registered as a potential resistive-open site. Returns the joint name.
  void add_joint(const std::string& name, NodeId a, NodeId b);

  /// Turn the named joint into a resistive open of `ohms`.
  void set_joint_resistance(const std::string& name, double ohms);

  /// Index (into resistors()) of the resistor backing the named joint.
  /// Throws Error for an unknown joint. This is how the batched kernel
  /// locates the swept element of an open-defect R sweep.
  std::size_t joint_resistor_index(const std::string& name) const;

  /// Overwrite the value of an existing element in place. Used by the
  /// batched kernel to retarget its private netlist copy at a lane's swept
  /// value; topology (nodes, element order) never changes.
  void set_resistor_ohms(std::size_t index, double ohms);
  void set_breakdown_vbd(std::size_t index, double vbd);

  /// All registered joint (open-site) names, in creation order.
  std::vector<std::string> joint_names() const;

  bool has_joint(const std::string& name) const;

  /// Replace (or set) the waveform of an existing voltage source.
  void set_vsource_wave(const std::string& name, PwlWaveform wave);

  const std::vector<Resistor>& resistors() const { return resistors_; }
  const std::vector<Capacitor>& capacitors() const { return capacitors_; }
  const std::vector<VSource>& vsources() const { return vsources_; }
  const std::vector<Mosfet>& mosfets() const { return mosfets_; }
  const std::vector<BreakdownResistor>& breakdowns() const { return breakdowns_; }

  /// Default resistance of a healthy joint.
  static constexpr double kJointOhms = 1.0;

 private:
  std::vector<std::string> names_;
  std::unordered_map<std::string, NodeId> by_name_;
  std::vector<Resistor> resistors_;
  std::vector<Capacitor> capacitors_;
  std::vector<VSource> vsources_;
  std::vector<Mosfet> mosfets_;
  std::vector<BreakdownResistor> breakdowns_;
  std::unordered_map<std::string, std::size_t> joints_;  // name -> resistor index
  std::vector<std::string> joint_order_;
};

}  // namespace memstress::analog
