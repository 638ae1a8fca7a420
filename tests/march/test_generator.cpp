#include "march/generator.hpp"

#include <gtest/gtest.h>

#include "march/library.hpp"
#include "util/error.hpp"

namespace memstress::march {
namespace {

using sram::FailureEnvelope;
using sram::FaultType;
using sram::InjectedFault;

InjectedFault fault(FaultType type, int row, int col, int aux_row = -1,
                    int aux_col = -1, bool value = false) {
  InjectedFault f;
  f.type = type;
  f.row = row;
  f.col = col;
  f.aux_row = aux_row;
  f.aux_col = aux_col;
  f.value = value;
  f.envelope = FailureEnvelope::always();
  return f;
}

std::vector<InjectedFault> classic_fault_panel() {
  return {
      fault(FaultType::StuckAt0, 1, 1),
      fault(FaultType::StuckAt1, 2, 2),
      fault(FaultType::TransitionUp, 0, 3),
      fault(FaultType::TransitionDown, 3, 0),
      fault(FaultType::CouplingInversion, 1, 2, 2, 3),
      fault(FaultType::DecoderWrongRow, 1, -1, 2),
  };
}

TEST(Generator, CoversTheClassicPanelCompletely) {
  const GeneratedMarch result = generate_march(classic_fault_panel());
  EXPECT_TRUE(result.complete())
      << result.covered << "/" << result.total << " with "
      << result.test.to_string();
}

TEST(Generator, GeneratedTestIsMarchConsistent) {
  // The generated test must pass a fault-free memory of any size.
  const GeneratedMarch result = generate_march(classic_fault_panel());
  for (const auto& [rows, cols] : {std::pair{4, 4}, {8, 8}, {3, 5}}) {
    sram::BehavioralSram memory(rows, cols);
    EXPECT_TRUE(run_march(memory, result.test).passed())
        << result.test.to_string();
  }
}

TEST(Generator, ShorterThanMarchSsOnSimplePanels) {
  // For stuck-at + transition faults the generator should land well below
  // the 22N of March SS.
  const std::vector<InjectedFault> simple{
      fault(FaultType::StuckAt0, 1, 1),
      fault(FaultType::StuckAt1, 2, 2),
      fault(FaultType::TransitionUp, 0, 3),
      fault(FaultType::TransitionDown, 3, 0),
  };
  const GeneratedMarch result = generate_march(simple);
  EXPECT_TRUE(result.complete());
  EXPECT_LT(result.test.complexity(), march_ss().complexity());
  EXPECT_LE(result.test.complexity(), 8);
}

TEST(Generator, ReadDestructiveNeedsBackToBackReads) {
  const std::vector<InjectedFault> panel{
      fault(FaultType::ReadDestructive, 2, 2)};
  const GeneratedMarch result = generate_march(panel);
  EXPECT_TRUE(result.complete()) << result.test.to_string();
  // Some element must contain consecutive reads (the (rs, rs) template).
  bool has_double_read = false;
  for (const auto& element : result.test.elements) {
    for (std::size_t i = 1; i < element.ops.size(); ++i)
      if (element.ops[i].is_read && element.ops[i - 1].is_read)
        has_double_read = true;
  }
  EXPECT_TRUE(has_double_read) << result.test.to_string();
}

TEST(Generator, PerFaultFlagsMatchCoverage) {
  const auto panel = classic_fault_panel();
  const GeneratedMarch result = generate_march(panel);
  ASSERT_EQ(result.detected.size(), panel.size());
  int flagged = 0;
  for (const bool hit : result.detected) flagged += hit;
  EXPECT_EQ(flagged, result.covered);
}

TEST(Generator, RespectsStressCondition) {
  // A VLV-only fault evaluated at nominal conditions is uncoverable; the
  // generator must report incomplete coverage rather than lie.
  InjectedFault vlv_only = fault(FaultType::StuckAt1, 1, 1);
  vlv_only.envelope = FailureEnvelope::low_voltage(1.2);
  GeneratorOptions nominal;
  nominal.condition = {1.8, 25e-9};
  const GeneratedMarch at_nominal = generate_march({vlv_only}, nominal);
  EXPECT_FALSE(at_nominal.complete());

  GeneratorOptions vlv;
  vlv.condition = {1.0, 100e-9};
  const GeneratedMarch at_vlv = generate_march({vlv_only}, vlv);
  EXPECT_TRUE(at_vlv.complete());
}

TEST(Generator, MinimizeDropsRedundantElements) {
  // March B contains elements redundant for a pure stuck-at panel.
  const std::vector<InjectedFault> panel{
      fault(FaultType::StuckAt0, 0, 0),
      fault(FaultType::StuckAt1, 3, 3),
  };
  const MarchTest minimized = minimize_march(march_b(), panel);
  EXPECT_LT(minimized.complexity(), march_b().complexity());
  EXPECT_EQ(coverage_of(minimized, panel), 2);
  // Minimized test is still valid on a clean memory.
  sram::BehavioralSram memory(4, 4);
  EXPECT_TRUE(run_march(memory, minimized).passed());
}

TEST(Generator, CoverageOfAgreesWithLibraryKnowledge) {
  // MATS+ misses TransitionDown (march theory): coverage_of must see that.
  const std::vector<InjectedFault> panel{fault(FaultType::TransitionDown, 1, 1)};
  EXPECT_EQ(coverage_of(mats_plus(), panel), 0);
  EXPECT_EQ(coverage_of(mats_plus_plus(), panel), 1);
}

TEST(Generator, ValidatesInput) {
  EXPECT_THROW(generate_march({}), Error);
  GeneratorOptions bad;
  bad.max_elements = 0;
  EXPECT_THROW(generate_march(classic_fault_panel(), bad), Error);
}

TEST(Generator, DeterministicOutput) {
  const GeneratedMarch a = generate_march(classic_fault_panel());
  const GeneratedMarch b = generate_march(classic_fault_panel());
  EXPECT_EQ(a.test, b.test);
}

}  // namespace
}  // namespace memstress::march
