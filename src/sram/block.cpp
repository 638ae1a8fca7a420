#include "sram/block.hpp"

#include "layout/netnames.hpp"
#include "util/bits.hpp"
#include "util/error.hpp"

namespace memstress::sram {

using analog::kGround;
using analog::MosType;
using analog::Netlist;
using analog::NodeId;
using analog::nmos_018;
using analog::pmos_018;
using analog::PwlWaveform;
namespace nn = memstress::layout;

int BlockSpec::address_bits() const { return ceil_log2(rows); }

std::string BlockSources::addr(int bit) { return "A" + std::to_string(bit); }
std::string BlockSources::csel(int col) { return "CSEL" + std::to_string(col); }

namespace {

/// Helper bundling the netlist with naming/sizing shortcuts.
struct Builder {
  const BlockSpec& spec;
  Netlist nl;
  NodeId vdd;

  explicit Builder(const BlockSpec& s) : spec(s) {
    vdd = nl.node(nn::net_vdd());
    nl.add_vsource(BlockSources::vdd, vdd, kGround, PwlWaveform::dc(1.8));
  }

  void inverter(const std::string& name, NodeId in, NodeId out, double wl_p,
                double wl_n) {
    nl.add_mosfet(name + ".p", MosType::Pmos, out, in, vdd, pmos_018(wl_p));
    nl.add_mosfet(name + ".n", MosType::Nmos, out, in, kGround, nmos_018(wl_n));
  }

  /// k-input NAND: parallel PMOS pull-ups, series NMOS chain.
  void nand(const std::string& name, const std::vector<NodeId>& ins, NodeId out,
            double wl_p, double wl_n) {
    require(!ins.empty(), "nand requires inputs");
    for (std::size_t i = 0; i < ins.size(); ++i)
      nl.add_mosfet(name + ".p" + std::to_string(i), MosType::Pmos, out, ins[i],
                    vdd, pmos_018(wl_p));
    NodeId lower = kGround;
    for (std::size_t i = ins.size(); i-- > 0;) {
      const NodeId upper =
          i == 0 ? out : nl.node(name + ".stack" + std::to_string(i));
      nl.add_mosfet(name + ".n" + std::to_string(i), MosType::Nmos, upper,
                    ins[i], lower, nmos_018(wl_n));
      if (i != 0)
        nl.add_capacitor("c:" + name + ".stack" + std::to_string(i), upper,
                         analog::kGround, spec.cap_stack);
      lower = upper;
    }
  }
};

}  // namespace

Netlist build_block(const BlockSpec& spec) {
  require(spec.rows >= 2 && (spec.rows & (spec.rows - 1)) == 0,
          "build_block: rows must be a power of two >= 2");
  require(spec.cols >= 1, "build_block: cols must be >= 1");

  Builder b(spec);
  Netlist& nl = b.nl;
  const NodeId vdd = b.vdd;
  const int bits = spec.address_bits();

  // --- control sources ------------------------------------------------------
  const NodeId din = nl.node("din");
  const NodeId dinb = nl.node("dinb");
  const NodeId we = nl.node("we");
  const NodeId pre = nl.node("pre");
  const NodeId wlen_b = nl.node("wlenb");
  nl.add_vsource(BlockSources::din, din, kGround, PwlWaveform::dc(0.0));
  nl.add_vsource(BlockSources::dinb, dinb, kGround, PwlWaveform::dc(0.0));
  nl.add_vsource(BlockSources::we, we, kGround, PwlWaveform::dc(0.0));
  nl.add_vsource(BlockSources::pre, pre, kGround, PwlWaveform::dc(0.0));
  nl.add_vsource(BlockSources::wlen_b, wlen_b, kGround, PwlWaveform::dc(1.8));

  // --- row address decoder --------------------------------------------------
  std::vector<NodeId> addr_in(bits), addr_b(bits);
  for (int bit = 0; bit < bits; ++bit) {
    const NodeId pad = nl.node(nn::net_addr(bit));
    nl.add_vsource(BlockSources::addr(bit), pad, kGround, PwlWaveform::dc(0.0));
    const NodeId in = nl.node(nn::net_addr_in(bit));
    nl.add_joint(nn::joint_addr_input(bit), pad, in);
    // Defect-cluster parasitic leak (invisible while the joint is healthy).
    nl.add_resistor("leak:" + nn::net_addr_in(bit), in, vdd, spec.leak_addr_ohms);
    nl.add_capacitor("c:" + nn::net_addr_in(bit), in, kGround, spec.cap_addr);
    const NodeId inv = nl.node(nn::net_addr_b(bit));
    b.inverter("dec.inv" + std::to_string(bit), in, inv, spec.wl_dec_pmos,
               spec.wl_dec_nmos);
    nl.add_capacitor("c:" + nn::net_addr_b(bit), inv, kGround, spec.cap_logic);
    addr_in[bit] = in;
    addr_b[bit] = inv;
  }

  for (int row = 0; row < spec.rows; ++row) {
    std::vector<NodeId> literals(static_cast<std::size_t>(bits));
    for (int bit = 0; bit < bits; ++bit)
      literals[static_cast<std::size_t>(bit)] =
          ((row >> bit) & 1) ? addr_in[bit] : addr_b[bit];
    const NodeId dec = nl.node(nn::net_dec(row));
    b.nand("dec.nand" + std::to_string(row), literals, dec, spec.wl_dec_pmos,
           spec.wl_dec_nmos);
    nl.add_capacitor("c:" + nn::net_dec(row), dec, kGround, spec.cap_logic);

    // Clock-gated wordline driver: wl = NOR(dec, wlen_b). The wordline only
    // rises once the enable opens (after precharge), so stale bitline state
    // from the previous cycle can never write the newly-addressed row.
    const NodeId wldrv = nl.node(nn::net_wldrv(row));
    const std::string drv = "wl.drv" + std::to_string(row);
    const NodeId pstack = nl.node(drv + ".pstack");
    nl.add_mosfet(drv + ".p0", MosType::Pmos, pstack, dec, vdd,
                  pmos_018(2 * spec.wl_driver_pmos));
    nl.add_mosfet(drv + ".p1", MosType::Pmos, wldrv, wlen_b, pstack,
                  pmos_018(2 * spec.wl_driver_pmos));
    nl.add_mosfet(drv + ".n0", MosType::Nmos, wldrv, dec, kGround,
                  nmos_018(spec.wl_driver_nmos));
    nl.add_mosfet(drv + ".n1", MosType::Nmos, wldrv, wlen_b, kGround,
                  nmos_018(spec.wl_driver_nmos));
    nl.add_capacitor("c:" + drv + ".pstack", pstack, kGround, spec.cap_stack);
    nl.add_capacitor("c:" + nn::net_wldrv(row), wldrv, kGround, spec.cap_logic);

    const NodeId wl = nl.node(nn::net_wl(row));
    nl.add_joint(nn::joint_wordline(row), wldrv, wl);
    nl.add_capacitor("c:" + nn::net_wl(row), wl, kGround, spec.cap_wordline);
  }

  // --- write bus --------------------------------------------------------------
  const NodeId wbus = nl.node(nn::net_wbus());
  const NodeId wbusb = nl.node(nn::net_wbusb());
  nl.add_mosfet("wr.en_t", MosType::Nmos, din, we, wbus, nmos_018(spec.wl_write));
  nl.add_mosfet("wr.en_f", MosType::Nmos, dinb, we, wbusb, nmos_018(spec.wl_write));
  nl.add_capacitor("c:wbus", wbus, kGround, spec.cap_bus);
  nl.add_capacitor("c:wbusb", wbusb, kGround, spec.cap_bus);

  // --- columns ----------------------------------------------------------------
  for (int col = 0; col < spec.cols; ++col) {
    const NodeId bl = nl.node(nn::net_bl(col));
    const NodeId blb = nl.node(nn::net_blb(col));
    nl.add_capacitor("c:" + nn::net_bl(col), bl, kGround, spec.cap_bitline);
    nl.add_capacitor("c:" + nn::net_blb(col), blb, kGround, spec.cap_bitline);

    // Precharge (active-low gate) and weak always-on keepers.
    const std::string cs = std::to_string(col);
    nl.add_mosfet("pre.t" + cs, MosType::Pmos, bl, pre, vdd,
                  pmos_018(spec.wl_precharge));
    nl.add_mosfet("pre.f" + cs, MosType::Pmos, blb, pre, vdd,
                  pmos_018(spec.wl_precharge));
    nl.add_mosfet("keep.t" + cs, MosType::Pmos, bl, kGround, vdd,
                  pmos_018(spec.wl_keeper));
    nl.add_mosfet("keep.f" + cs, MosType::Pmos, blb, kGround, vdd,
                  pmos_018(spec.wl_keeper));

    // Column select from the write bus.
    const NodeId csel = nl.node("csel" + cs);
    nl.add_vsource(BlockSources::csel(col), csel, kGround, PwlWaveform::dc(0.0));
    nl.add_mosfet("wr.sel_t" + cs, MosType::Nmos, wbus, csel, bl,
                  nmos_018(spec.wl_write));
    nl.add_mosfet("wr.sel_f" + cs, MosType::Nmos, wbusb, csel, blb,
                  nmos_018(spec.wl_write));

    // Single-ended sense path: bl -> inverter -> (open site) -> inverter -> q.
    const NodeId sa = nl.node(nn::net_sa(col));
    b.inverter("sense" + cs, bl, sa, spec.wl_sense_pmos, spec.wl_sense_nmos);
    nl.add_capacitor("c:" + nn::net_sa(col), sa, kGround, spec.cap_logic);
    const NodeId sa_j = nl.node(nn::net_sa(col) + "_j");
    nl.add_joint(nn::joint_sense(col), sa, sa_j);
    nl.add_capacitor("c:" + nn::net_sa(col) + "_j", sa_j, kGround, spec.cap_logic);
    const NodeId q = nl.node(nn::net_q(col));
    b.inverter("out" + cs, sa_j, q, spec.wl_driver_pmos, spec.wl_driver_nmos);
    nl.add_capacitor("c:" + nn::net_q(col), q, kGround, spec.cap_output);

    // Bitline stitch: the array-side bitline is the same electrical node in
    // this small block, so the stitch joint sits between bl and the cell
    // column spine node.
    const NodeId bl_spine = nl.node(nn::net_bl(col) + "_spine");
    nl.add_joint(nn::joint_bitline(col), bl, bl_spine);
    nl.add_capacitor("c:" + nn::net_bl(col) + "_spine", bl_spine, kGround,
                     spec.cap_bitline * 0.5);

    // --- cells of this column -------------------------------------------------
    for (int row = 0; row < spec.rows; ++row) {
      const NodeId wl = nl.find_node(nn::net_wl(row));
      const NodeId t = nl.node(nn::net_cell_t(row, col));
      const NodeId f = nl.node(nn::net_cell_f(row, col));
      const std::string cell = "cell" + std::to_string(row) + "_" + cs;
      // Cross-coupled inverters. The true-side pull-up reaches vdd through
      // a registered joint: an open there turns the stored '1' into a
      // dynamically-held charge (the data-retention defect).
      const NodeId pu_src = nl.node(nn::net_cell_t(row, col) + "_pu");
      nl.add_joint(nn::joint_cell_pullup(row, col), vdd, pu_src);
      nl.add_capacitor("c:" + nn::net_cell_t(row, col) + "_pu", pu_src, kGround,
                       spec.cap_access);
      nl.add_mosfet(cell + ".pu_t", MosType::Pmos, t, f, pu_src,
                    pmos_018(spec.wl_cell_pullup));
      nl.add_mosfet(cell + ".pd_t", MosType::Nmos, t, f, kGround,
                    nmos_018(spec.wl_cell_pulldown));
      nl.add_mosfet(cell + ".pu_f", MosType::Pmos, f, t, vdd,
                    pmos_018(spec.wl_cell_pullup));
      nl.add_mosfet(cell + ".pd_f", MosType::Nmos, f, t, kGround,
                    nmos_018(spec.wl_cell_pulldown));
      nl.add_capacitor("c:" + nn::net_cell_t(row, col), t, kGround, spec.cap_node);
      nl.add_capacitor("c:" + nn::net_cell_f(row, col), f, kGround, spec.cap_node);
      if (spec.cell_leak_ohms > 0.0) {
        nl.add_resistor("leak:" + nn::net_cell_t(row, col), t, kGround,
                        spec.cell_leak_ohms);
        nl.add_resistor("leak:" + nn::net_cell_f(row, col), f, kGround,
                        spec.cell_leak_ohms);
      }
      // Access transistors; the true side passes through the contact joint.
      const NodeId acc = nl.node(nn::net_cell_t(row, col) + "_acc");
      nl.add_mosfet(cell + ".acc_t", MosType::Nmos, bl_spine, wl, acc,
                    nmos_018(spec.wl_cell_access));
      nl.add_joint(nn::joint_cell_access(row, col), acc, t);
      nl.add_capacitor("c:" + nn::net_cell_t(row, col) + "_acc", acc, kGround,
                       spec.cap_access);
      nl.add_mosfet(cell + ".acc_f", MosType::Nmos, blb, wl, f,
                    nmos_018(spec.wl_cell_access));
    }
  }

  return nl;
}

}  // namespace memstress::sram
