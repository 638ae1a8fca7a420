#include "analog/netlist.hpp"

#include <gtest/gtest.h>

#include "analog/engine.hpp"
#include "util/error.hpp"

namespace memstress::analog {
namespace {

TEST(Netlist, GroundHasTwoNames) {
  Netlist nl;
  EXPECT_EQ(nl.node("0"), kGround);
  EXPECT_EQ(nl.node("gnd"), kGround);
  EXPECT_EQ(nl.node_count(), 1u);
}

TEST(Netlist, NodeCreationIsIdempotent) {
  Netlist nl;
  const NodeId a = nl.node("a");
  EXPECT_EQ(nl.node("a"), a);
  EXPECT_EQ(nl.node_count(), 2u);
  EXPECT_EQ(nl.node_name(a), "a");
}

TEST(Netlist, FindNodeRequiresExistence) {
  Netlist nl;
  nl.node("exists");
  EXPECT_NO_THROW(nl.find_node("exists"));
  EXPECT_THROW(nl.find_node("missing"), Error);
  EXPECT_TRUE(nl.has_node("exists"));
  EXPECT_FALSE(nl.has_node("missing"));
}

TEST(Netlist, DeviceValidation) {
  Netlist nl;
  const NodeId a = nl.node("a");
  EXPECT_THROW(nl.add_resistor("r", a, kGround, 0.0), Error);
  EXPECT_THROW(nl.add_resistor("r", a, kGround, -5.0), Error);
  EXPECT_THROW(nl.add_capacitor("c", a, kGround, 0.0), Error);
  EXPECT_THROW(nl.add_breakdown("b", a, kGround, 0.0, 1.0), Error);
  EXPECT_THROW(nl.add_breakdown("b", a, kGround, 1e3, -1.0), Error);
}

TEST(Netlist, JointsAreNamedResistors) {
  Netlist nl;
  const NodeId a = nl.node("a");
  const NodeId b = nl.node("b");
  nl.add_joint("j1", a, b);
  ASSERT_EQ(nl.resistors().size(), 1u);
  EXPECT_DOUBLE_EQ(nl.resistors()[0].ohms, Netlist::kJointOhms);
  EXPECT_TRUE(nl.has_joint("j1"));
  EXPECT_FALSE(nl.has_joint("j2"));
  EXPECT_EQ(nl.joint_names(), std::vector<std::string>{"j1"});
}

TEST(Netlist, JointResistanceCanBeRaised) {
  Netlist nl;
  nl.add_joint("j", nl.node("a"), nl.node("b"));
  nl.set_joint_resistance("j", 5e6);
  EXPECT_DOUBLE_EQ(nl.resistors()[0].ohms, 5e6);
  EXPECT_THROW(nl.set_joint_resistance("nope", 1e3), Error);
  EXPECT_THROW(nl.set_joint_resistance("j", 0.0), Error);
}

TEST(Netlist, DuplicateJointRejected) {
  Netlist nl;
  nl.add_joint("j", nl.node("a"), nl.node("b"));
  EXPECT_THROW(nl.add_joint("j", nl.node("c"), nl.node("d")), Error);
}

TEST(Netlist, VsourceWaveReplaceable) {
  Netlist nl;
  nl.add_vsource("V", nl.node("x"), kGround, PwlWaveform::dc(1.0));
  nl.set_vsource_wave("V", PwlWaveform::dc(2.5));
  EXPECT_DOUBLE_EQ(nl.vsources()[0].wave.value(0.0), 2.5);
  EXPECT_THROW(nl.set_vsource_wave("missing", PwlWaveform::dc(0.0)), Error);
}

/// The Error add_vsource throws, or "" if it accepts the source.
std::string vsource_error(Netlist& nl, const std::string& name, NodeId pos,
                          NodeId neg) {
  try {
    nl.add_vsource(name, pos, neg, PwlWaveform::dc(1.0));
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

// The engine takes a source's node as a known input, so a source must drive
// a node of its own against ground. A doubly driven node used to fail only
// at run time, as a singular Jacobian.
TEST(Netlist, VsourceNeedsAGroundedNegativeTerminal) {
  Netlist nl;
  const std::string error =
      vsource_error(nl, "VFLOAT", nl.node("a"), nl.node("b"));
  EXPECT_NE(error.find("VFLOAT"), std::string::npos) << error;
  EXPECT_TRUE(nl.vsources().empty());
}

TEST(Netlist, VsourceCannotDriveGround) {
  Netlist nl;
  const std::string error = vsource_error(nl, "VGND", kGround, kGround);
  EXPECT_NE(error.find("VGND"), std::string::npos) << error;
  EXPECT_TRUE(nl.vsources().empty());
}

TEST(Netlist, VsourceCannotDriveADrivenNode) {
  Netlist nl;
  const NodeId x = nl.node("x");
  ASSERT_EQ(vsource_error(nl, "V1", x, kGround), "");
  const std::string error = vsource_error(nl, "V2", x, kGround);
  EXPECT_NE(error.find("V2"), std::string::npos) << error;
  EXPECT_NE(error.find("V1"), std::string::npos) << error;
  EXPECT_EQ(nl.vsources().size(), 1u);
}

TEST(Netlist, CopyIsIndependent) {
  // The whole defect-injection flow relies on cheap value copies.
  Netlist original;
  original.add_joint("j", original.node("a"), original.node("b"));
  Netlist copy = original;
  copy.set_joint_resistance("j", 1e6);
  copy.add_resistor("extra", copy.node("a"), kGround, 10.0);
  EXPECT_DOUBLE_EQ(original.resistors()[0].ohms, Netlist::kJointOhms);
  EXPECT_EQ(original.resistors().size(), 1u);
  EXPECT_EQ(copy.resistors().size(), 2u);
}

TEST(BreakdownResistor, CurrentIsZeroBelowThreshold) {
  BreakdownResistor br{"b", 0, 0, 1e3, 1.5, 0.01};
  EXPECT_NEAR(br.current(0.0), 0.0, 1e-12);
  EXPECT_LT(std::abs(br.current(1.0)), 1e-6);
  EXPECT_LT(std::abs(br.current(-1.0)), 1e-6);
}

TEST(BreakdownResistor, OhmicAboveThreshold) {
  BreakdownResistor br{"b", 0, 0, 1e3, 1.5, 0.01};
  EXPECT_NEAR(br.current(2.5), 1.0 / 1e3, 1e-5);   // (2.5-1.5)/1k
  EXPECT_NEAR(br.current(-2.5), -1.0 / 1e3, 1e-5); // symmetric
}

TEST(BreakdownResistor, SmoothAcrossKink) {
  BreakdownResistor br{"b", 0, 0, 1e3, 1.5, 0.01};
  double prev = br.current(1.3);
  for (double v = 1.3; v <= 1.7; v += 0.001) {
    const double cur = br.current(v);
    EXPECT_GE(cur, prev - 1e-12);           // monotone
    EXPECT_LT(cur - prev, 2e-6) << "at " << v;  // no jumps
    prev = cur;
  }
}

TEST(BreakdownResistor, InCircuitDividerConductsOnlyAboveVbd) {
  // Supply -- breakdown(1.2 V, 200 ohm) -- node -- 1 kohm -- gnd.
  for (const double supply : {1.0, 1.8}) {
    Netlist nl;
    const NodeId vin = nl.node("vin");
    const NodeId mid = nl.node("mid");
    nl.add_vsource("V", vin, kGround, PwlWaveform::dc(supply));
    nl.add_breakdown("BD", vin, mid, 200.0, 1.2);
    nl.add_resistor("R", mid, kGround, 1000.0);
    Simulator sim(nl);
    const Trace trace = sim.run({.t_stop = 5e-9, .dt = 0.25e-9}, {"mid"});
    const double v_mid = trace.value_at("mid", 5e-9);
    if (supply < 1.2) {
      EXPECT_LT(v_mid, 0.01);  // no conduction below breakdown
    } else {
      // I = (1.8 - mid - 1.2)/200 = mid/1000 -> mid = 0.5.
      EXPECT_NEAR(v_mid, 0.5, 0.01);
    }
  }
}

}  // namespace
}  // namespace memstress::analog
