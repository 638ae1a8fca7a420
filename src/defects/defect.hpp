// Physical defect representation and electrical injection.
//
// A defect is a resistive bridge (extra resistor between two nets) or a
// resistive open (a netlist joint whose resistance is raised from its
// nominal ~0 to the defect value). Sites come from the IFA extraction
// (layout module); injection happens on a copy of the fault-free netlist,
// one defect at a time, exactly as in the paper's Figure 2 flow.
#pragma once

#include <string>

#include "analog/batch.hpp"
#include "analog/netlist.hpp"
#include "layout/critical_area.hpp"
#include "sram/block.hpp"

namespace memstress::defects {

enum class DefectKind : unsigned char { Bridge, Open, Mtj };

/// Fault classes of a defective magnetic tunnel junction (STT-MRAM cell).
/// The defect parameter is the junction's parallel-state resistance R_P;
/// which class a given R_P deviation lands in depends on the stimulus:
/// a thin barrier loses data over a pause (retention), a thick one starves
/// the write current (transition), a leaky one flips under repeated reads
/// (read disturb). Characterized separately because each class has its own
/// stress-condition physics.
enum class MtjFaultCategory : unsigned char { Retention, Transition,
                                              ReadDisturb };

/// "retention" / "transition" / "read-disturb".
const char* mtj_category_name(MtjFaultCategory category);

struct Defect {
  DefectKind kind = DefectKind::Bridge;
  // Bridge: the two shorted nets. Open: `net_a` holds the joint name.
  // Mtj: `net_a` holds the cell name.
  std::string net_a;
  std::string net_b;
  double resistance = 0.0;
  /// > 0 for threshold-conducting (gate-oxide breakdown) bridges: the bridge
  /// is an open circuit below this voltage and ohmic above it.
  double breakdown_v = 0.0;
  // Category indices allow DB lookups without re-deriving from names.
  layout::BridgeCategory bridge_category = layout::BridgeCategory::Other;
  layout::OpenCategory open_category = layout::OpenCategory::Other;
  MtjFaultCategory mtj_category = MtjFaultCategory::Retention;

  /// "bridge[cell-true-false] cell0_0_t~cell0_0_f R=90 kOhm" style tag.
  std::string tag() const;
};

/// Inject the defect into a netlist (throws Error if the site does not
/// exist in this netlist — e.g. a site folded onto a too-small block).
/// Returns the element it added or retargeted: the bridge resistor, the
/// breakdown device, or the open's joint resistor.
analog::SweptElement inject(analog::Netlist& netlist, const Defect& defect);

/// Map an extracted bridge site onto its representative site in a small
/// simulation block (the detectability of a category is measured on one
/// representative; geometry only scales the *population*, not the physics).
Defect representative_bridge(layout::BridgeCategory category,
                             const sram::BlockSpec& spec, double resistance);

/// Same for open sites.
Defect representative_open(layout::OpenCategory category,
                           const sram::BlockSpec& spec, double resistance);

/// Representative defective MTJ: one junction of the block, its
/// parallel-state resistance deviated to `resistance`. Not injectable into
/// the analog netlist — the stt_mram technology model evaluates it with
/// closed-form MTJ physics instead.
Defect representative_mtj(MtjFaultCategory category,
                          const sram::BlockSpec& spec, double resistance);

/// All MTJ fault categories (every block hosts all of them).
std::vector<MtjFaultCategory> simulatable_mtj_categories(
    const sram::BlockSpec& spec);

/// All bridge categories that have a representative in a block of this
/// geometry (BitlineBitline needs >= 2 columns, AddressAddress >= 2 bits).
std::vector<layout::BridgeCategory> simulatable_bridge_categories(
    const sram::BlockSpec& spec);

/// All open categories (every block hosts all of them).
std::vector<layout::OpenCategory> simulatable_open_categories(
    const sram::BlockSpec& spec);

}  // namespace memstress::defects
