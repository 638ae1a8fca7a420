#include "analog/netlist.hpp"

#include <cmath>

#include "util/error.hpp"

namespace memstress::analog {

Netlist::Netlist() {
  names_.push_back("0");
  by_name_["0"] = kGround;
  by_name_["gnd"] = kGround;
}

NodeId Netlist::node(const std::string& name) {
  const auto it = by_name_.find(name);
  if (it != by_name_.end()) return it->second;
  const NodeId id = static_cast<NodeId>(names_.size());
  names_.push_back(name);
  by_name_.emplace(name, id);
  return id;
}

NodeId Netlist::find_node(const std::string& name) const {
  const auto it = by_name_.find(name);
  require(it != by_name_.end(), "Netlist: unknown node " + name);
  return it->second;
}

bool Netlist::has_node(const std::string& name) const {
  return by_name_.count(name) != 0;
}

const std::string& Netlist::node_name(NodeId id) const {
  require(id >= 0 && static_cast<std::size_t>(id) < names_.size(),
          "Netlist::node_name out of range");
  return names_[static_cast<std::size_t>(id)];
}

void Netlist::add_resistor(const std::string& name, NodeId a, NodeId b, double ohms) {
  require(ohms > 0.0, "Netlist: resistor " + name + " must have positive ohms");
  resistors_.push_back({name, a, b, ohms});
}

void Netlist::add_capacitor(const std::string& name, NodeId a, NodeId b, double farads) {
  require(farads > 0.0, "Netlist: capacitor " + name + " must have positive farads");
  capacitors_.push_back({name, a, b, farads});
}

void Netlist::add_vsource(const std::string& name, NodeId pos, NodeId neg,
                          PwlWaveform wave) {
  require(neg == kGround,
          "Netlist: vsource " + name + " needs its negative terminal at ground");
  require(pos != kGround, "Netlist: vsource " + name + " cannot drive ground");
  for (const auto& source : vsources_)
    if (source.pos == pos)
      throw Error("Netlist: vsource " + name + " drives " + node_name(pos) +
                  ", already driven by " + source.name);
  vsources_.push_back({name, pos, std::move(wave)});
}

void Netlist::add_mosfet(const std::string& name, MosType type, NodeId d, NodeId g,
                         NodeId s, const MosParams& params) {
  mosfets_.push_back({name, type, d, g, s, params});
}

double breakdown_current(double v, double ohms, double vbd, double smooth) {
  const auto sp = [smooth](double x) {
    return 0.5 * (x + std::sqrt(x * x + 4.0 * smooth * smooth));
  };
  return (sp(v - vbd) - sp(-v - vbd)) / ohms;
}

double BreakdownResistor::current(double v) const {
  return breakdown_current(v, ohms, vbd, smooth);
}

void Netlist::add_breakdown(const std::string& name, NodeId a, NodeId b,
                            double ohms, double vbd) {
  require(ohms > 0.0, "Netlist: breakdown " + name + " must have positive ohms");
  require(vbd >= 0.0, "Netlist: breakdown " + name + " needs vbd >= 0");
  BreakdownResistor br;
  br.name = name;
  br.a = a;
  br.b = b;
  br.ohms = ohms;
  br.vbd = vbd;
  breakdowns_.push_back(br);
}

void Netlist::add_joint(const std::string& name, NodeId a, NodeId b) {
  require(joints_.count(name) == 0, "Netlist: duplicate joint " + name);
  joints_[name] = resistors_.size();
  joint_order_.push_back(name);
  add_resistor("joint:" + name, a, b, kJointOhms);
}

void Netlist::set_joint_resistance(const std::string& name, double ohms) {
  const auto it = joints_.find(name);
  require(it != joints_.end(), "Netlist: unknown joint " + name);
  require(ohms > 0.0, "Netlist: joint resistance must be positive");
  resistors_[it->second].ohms = ohms;
}

std::size_t Netlist::joint_resistor_index(const std::string& name) const {
  const auto it = joints_.find(name);
  require(it != joints_.end(), "Netlist: unknown joint " + name);
  return it->second;
}

void Netlist::set_resistor_ohms(std::size_t index, double ohms) {
  require(index < resistors_.size(), "Netlist::set_resistor_ohms out of range");
  require(ohms > 0.0, "Netlist: resistor ohms must be positive");
  resistors_[index].ohms = ohms;
}

void Netlist::set_breakdown_vbd(std::size_t index, double vbd) {
  require(index < breakdowns_.size(), "Netlist::set_breakdown_vbd out of range");
  require(vbd >= 0.0, "Netlist: breakdown vbd must be >= 0");
  breakdowns_[index].vbd = vbd;
}

std::vector<std::string> Netlist::joint_names() const { return joint_order_; }

bool Netlist::has_joint(const std::string& name) const {
  return joints_.count(name) != 0;
}

void Netlist::set_vsource_wave(const std::string& name, PwlWaveform wave) {
  for (auto& source : vsources_) {
    if (source.name == name) {
      source.wave = std::move(wave);
      return;
    }
  }
  throw Error("Netlist: unknown vsource " + name);
}

}  // namespace memstress::analog
