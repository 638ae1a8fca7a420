#include "defects/defect.hpp"

#include "layout/netnames.hpp"
#include "util/error.hpp"
#include "util/table.hpp"

namespace memstress::defects {

namespace nn = memstress::layout;
using layout::BridgeCategory;
using layout::OpenCategory;

const char* mtj_category_name(MtjFaultCategory category) {
  switch (category) {
    case MtjFaultCategory::Retention: return "retention";
    case MtjFaultCategory::Transition: return "transition";
    case MtjFaultCategory::ReadDisturb: return "read-disturb";
  }
  throw Error("mtj_category_name: unknown category");
}

std::string Defect::tag() const {
  if (kind == DefectKind::Bridge) {
    std::string text = "bridge[" +
                       std::string(layout::bridge_category_name(bridge_category)) +
                       "] " + net_a + "~" + net_b + " R=" +
                       fmt_resistance(resistance);
    if (breakdown_v > 0.0) text += " Vbd=" + fmt_fixed(breakdown_v, 2) + " V";
    return text;
  }
  if (kind == DefectKind::Mtj) {
    return "mtj[" + std::string(mtj_category_name(mtj_category)) + "] " +
           net_a + " Rp=" + fmt_resistance(resistance);
  }
  return "open[" + std::string(layout::open_category_name(open_category)) + "] " +
         net_a + " R=" + fmt_resistance(resistance);
}

analog::SweptElement inject(analog::Netlist& netlist, const Defect& defect) {
  using Kind = analog::SweptElement::Kind;
  require(defect.resistance > 0.0, "inject: defect resistance must be positive");
  require(defect.kind != DefectKind::Mtj,
          "inject: MTJ defects are not analog-injectable; the stt_mram "
          "technology model evaluates them with closed-form MTJ physics");
  if (defect.kind == DefectKind::Bridge) {
    const analog::NodeId a = netlist.find_node(defect.net_a);
    const analog::NodeId b = netlist.find_node(defect.net_b);
    if (defect.breakdown_v > 0.0) {
      netlist.add_breakdown("defect:" + defect.net_a + "~" + defect.net_b, a, b,
                            defect.resistance, defect.breakdown_v);
      return {Kind::BreakdownVbd, netlist.breakdowns().size() - 1};
    }
    netlist.add_resistor("defect:" + defect.net_a + "~" + defect.net_b, a, b,
                         defect.resistance);
    return {Kind::ResistorOhms, netlist.resistors().size() - 1};
  }
  require(netlist.has_joint(defect.net_a), "inject: unknown joint " + defect.net_a);
  netlist.set_joint_resistance(defect.net_a, defect.resistance);
  return {Kind::ResistorOhms, netlist.joint_resistor_index(defect.net_a)};
}

Defect representative_bridge(BridgeCategory category, const sram::BlockSpec& spec,
                             double resistance) {
  Defect d;
  d.kind = DefectKind::Bridge;
  d.bridge_category = category;
  d.resistance = resistance;
  switch (category) {
    case BridgeCategory::CellTrueFalse:
      d.net_a = nn::net_cell_t(0, 0);
      d.net_b = nn::net_cell_f(0, 0);
      break;
    case BridgeCategory::CellNodeBitline:
      d.net_a = nn::net_cell_t(0, 0);
      d.net_b = nn::net_bl(0);
      break;
    case BridgeCategory::CellNodeVdd:
      d.net_a = nn::net_cell_t(0, 0);
      d.net_b = nn::net_vdd();
      break;
    case BridgeCategory::CellNodeGnd:
      d.net_a = nn::net_cell_t(0, 0);
      d.net_b = nn::net_gnd();
      break;
    case BridgeCategory::BitlineBitline:
      require(spec.cols >= 2,
              "representative_bridge: bitline-bitline needs >= 2 columns");
      d.net_a = nn::net_blb(0);
      d.net_b = nn::net_bl(1);
      break;
    case BridgeCategory::WordlineWordline:
      d.net_a = nn::net_wl(0);
      d.net_b = nn::net_wl(1);
      break;
    case BridgeCategory::AddressAddress:
      require(spec.address_bits() >= 2,
              "representative_bridge: address-address needs >= 2 address bits");
      d.net_a = nn::net_addr_in(0);
      d.net_b = nn::net_addr_in(1);
      break;
    case BridgeCategory::AddressVdd:
      d.net_a = nn::net_addr_in(0);
      d.net_b = nn::net_vdd();
      break;
    case BridgeCategory::CellGateOxide:
      d.net_a = nn::net_cell_t(0, 0);
      d.net_b = nn::net_wl(0);
      break;
    case BridgeCategory::Other:
      throw Error("representative_bridge: no representative for Other");
  }
  return d;
}

Defect representative_open(OpenCategory category, const sram::BlockSpec& spec,
                           double resistance) {
  (void)spec;
  Defect d;
  d.kind = DefectKind::Open;
  d.open_category = category;
  d.resistance = resistance;
  switch (category) {
    case OpenCategory::CellAccess: d.net_a = nn::joint_cell_access(0, 0); break;
    case OpenCategory::CellPullup: d.net_a = nn::joint_cell_pullup(0, 0); break;
    case OpenCategory::Wordline: d.net_a = nn::joint_wordline(0); break;
    case OpenCategory::AddressInput: d.net_a = nn::joint_addr_input(0); break;
    case OpenCategory::Bitline: d.net_a = nn::joint_bitline(0); break;
    case OpenCategory::SenseOut: d.net_a = nn::joint_sense(0); break;
    case OpenCategory::Other:
      throw Error("representative_open: no representative for Other");
  }
  return d;
}

Defect representative_mtj(MtjFaultCategory category,
                          const sram::BlockSpec& spec, double resistance) {
  (void)spec;
  Defect d;
  d.kind = DefectKind::Mtj;
  d.mtj_category = category;
  d.resistance = resistance;
  d.net_a = nn::net_cell_t(0, 0);
  return d;
}

std::vector<MtjFaultCategory> simulatable_mtj_categories(
    const sram::BlockSpec&) {
  return {MtjFaultCategory::Retention, MtjFaultCategory::Transition,
          MtjFaultCategory::ReadDisturb};
}

std::vector<BridgeCategory> simulatable_bridge_categories(
    const sram::BlockSpec& spec) {
  std::vector<BridgeCategory> cats{
      BridgeCategory::CellTrueFalse,    BridgeCategory::CellNodeBitline,
      BridgeCategory::CellNodeVdd,      BridgeCategory::CellNodeGnd,
      BridgeCategory::WordlineWordline, BridgeCategory::AddressVdd,
      BridgeCategory::CellGateOxide};
  if (spec.cols >= 2) cats.push_back(BridgeCategory::BitlineBitline);
  if (spec.address_bits() >= 2) cats.push_back(BridgeCategory::AddressAddress);
  return cats;
}

std::vector<OpenCategory> simulatable_open_categories(const sram::BlockSpec&) {
  return {OpenCategory::CellAccess, OpenCategory::CellPullup,
          OpenCategory::Wordline,   OpenCategory::AddressInput,
          OpenCategory::Bitline,    OpenCategory::SenseOut};
}

}  // namespace memstress::defects
