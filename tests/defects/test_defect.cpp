#include "defects/defect.hpp"

#include <gtest/gtest.h>

#include "layout/netnames.hpp"
#include "util/error.hpp"

namespace memstress::defects {
namespace {

using layout::BridgeCategory;
using layout::OpenCategory;

sram::BlockSpec small_block() {
  sram::BlockSpec spec;
  spec.rows = 2;
  spec.cols = 1;
  return spec;
}

sram::BlockSpec wide_block() {
  sram::BlockSpec spec;
  spec.rows = 4;
  spec.cols = 2;
  return spec;
}

TEST(Defect, BridgeTagMentionsEverything) {
  const Defect d = representative_bridge(BridgeCategory::CellTrueFalse,
                                         small_block(), 90e3);
  const std::string tag = d.tag();
  EXPECT_NE(tag.find("bridge"), std::string::npos);
  EXPECT_NE(tag.find("cell-true-false"), std::string::npos);
  EXPECT_NE(tag.find("90 kOhm"), std::string::npos);
}

TEST(Defect, BreakdownTagMentionsVbd) {
  Defect d = representative_bridge(BridgeCategory::CellGateOxide, small_block(),
                                   5e3);
  d.breakdown_v = 1.85;
  EXPECT_NE(d.tag().find("Vbd=1.85 V"), std::string::npos);
}

TEST(Defect, OpenTagMentionsJoint) {
  const Defect d =
      representative_open(OpenCategory::AddressInput, small_block(), 5e6);
  EXPECT_NE(d.tag().find("open"), std::string::npos);
  EXPECT_NE(d.tag().find("addr0.in"), std::string::npos);
  EXPECT_NE(d.tag().find("5 MOhm"), std::string::npos);
}

TEST(Inject, BridgeAddsOneResistor) {
  analog::Netlist nl = sram::build_block(small_block());
  const std::size_t before = nl.resistors().size();
  const analog::SweptElement added = inject(
      nl, representative_bridge(BridgeCategory::CellTrueFalse, small_block(),
                                1e3));
  EXPECT_EQ(nl.resistors().size(), before + 1);
  EXPECT_TRUE(added.kind == analog::SweptElement::Kind::ResistorOhms &&
              added.index == before);
}

TEST(Inject, OpenRaisesJointResistance) {
  analog::Netlist nl = sram::build_block(small_block());
  const std::size_t resistors_before = nl.resistors().size();
  const analog::SweptElement retargeted = inject(
      nl, representative_open(OpenCategory::Wordline, small_block(), 2e6));
  EXPECT_EQ(nl.resistors().size(), resistors_before);  // no new device
  bool found = false;
  for (std::size_t i = 0; i < nl.resistors().size(); ++i) {
    const auto& r = nl.resistors()[i];
    if (r.name == "joint:" + layout::joint_wordline(0)) {
      EXPECT_DOUBLE_EQ(r.ohms, 2e6);
      EXPECT_TRUE(retargeted.kind == analog::SweptElement::Kind::ResistorOhms &&
                  retargeted.index == i);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Inject, BreakdownBridgeAddsBreakdownDevice) {
  analog::Netlist nl = sram::build_block(small_block());
  Defect d = representative_bridge(BridgeCategory::CellGateOxide, small_block(),
                                   5e3);
  d.breakdown_v = 1.8;
  const analog::SweptElement added = inject(nl, d);
  ASSERT_EQ(nl.breakdowns().size(), 1u);
  EXPECT_DOUBLE_EQ(nl.breakdowns()[0].vbd, 1.8);
  EXPECT_TRUE(added.kind == analog::SweptElement::Kind::BreakdownVbd &&
              added.index == 0u);
}

TEST(Inject, RejectsNonPositiveResistance) {
  analog::Netlist nl = sram::build_block(small_block());
  Defect d = representative_bridge(BridgeCategory::CellTrueFalse, small_block(),
                                   1e3);
  d.resistance = 0.0;
  EXPECT_THROW(inject(nl, d), Error);
}

TEST(Inject, UnknownSiteThrows) {
  analog::Netlist nl = sram::build_block(small_block());
  Defect d;
  d.kind = DefectKind::Bridge;
  d.net_a = "no_such_net";
  d.net_b = "vdd";
  d.resistance = 1e3;
  EXPECT_THROW(inject(nl, d), Error);
  Defect open;
  open.kind = DefectKind::Open;
  open.net_a = "no_such_joint";
  open.resistance = 1e6;
  EXPECT_THROW(inject(nl, open), Error);
}

TEST(Representative, AllBridgeCategoriesInjectableOnWideBlock) {
  const sram::BlockSpec spec = wide_block();
  analog::Netlist golden = sram::build_block(spec);
  for (const auto category : simulatable_bridge_categories(spec)) {
    analog::Netlist nl = golden;
    EXPECT_NO_THROW(inject(nl, representative_bridge(category, spec, 1e3)))
        << layout::bridge_category_name(category);
  }
}

TEST(Representative, AllOpenCategoriesInjectable) {
  const sram::BlockSpec spec = small_block();
  analog::Netlist golden = sram::build_block(spec);
  for (const auto category : simulatable_open_categories(spec)) {
    analog::Netlist nl = golden;
    EXPECT_NO_THROW(inject(nl, representative_open(category, spec, 1e6)))
        << layout::open_category_name(category);
  }
}

TEST(Representative, GeometryGatesCategories) {
  const auto narrow = simulatable_bridge_categories(small_block());
  EXPECT_EQ(std::count(narrow.begin(), narrow.end(),
                       BridgeCategory::BitlineBitline), 0);
  EXPECT_EQ(std::count(narrow.begin(), narrow.end(),
                       BridgeCategory::AddressAddress), 0);
  const auto wide = simulatable_bridge_categories(wide_block());
  EXPECT_EQ(std::count(wide.begin(), wide.end(),
                       BridgeCategory::BitlineBitline), 1);
  EXPECT_EQ(std::count(wide.begin(), wide.end(),
                       BridgeCategory::AddressAddress), 1);
}

TEST(Representative, RequiresGeometryForPairCategories) {
  EXPECT_THROW(representative_bridge(BridgeCategory::BitlineBitline,
                                     small_block(), 1e3), Error);
  EXPECT_THROW(representative_bridge(BridgeCategory::AddressAddress,
                                     small_block(), 1e3), Error);
}

}  // namespace
}  // namespace memstress::defects
