#include "layout/sram_layout.hpp"

#include "layout/netnames.hpp"
#include "util/bits.hpp"
#include "util/error.hpp"

namespace memstress::layout {

LayoutModel generate_sram_layout(int rows, int cols, const FloorplanRules& r) {
  require(rows > 0 && cols > 0, "generate_sram_layout: rows/cols must be positive");
  LayoutModel model;
  model.rows = rows;
  model.cols = cols;
  auto add = [&model](Layer layer, double x0, double y0, double x1, double y1,
                      std::string net, std::string joint = {}) {
    model.shapes.push_back(
        {layer, x0, y0, x1, y1, std::move(net), std::move(joint)});
  };

  const double px = r.cell_pitch_x;
  const double py = r.cell_pitch_y;

  for (int row = 0; row < rows; ++row) {
    const double oy = row * py;
    const bool mirrored = row % 2 == 1;
    // Within a cell, local Y runs 0..py; mirroring flips it.
    auto ly = [&](double y_local) {
      return mirrored ? oy + (py - y_local) : oy + y_local;
    };
    auto add_local = [&](Layer layer, double x0, double yl0, double x1, double yl1,
                         std::string net, std::string joint = {}) {
      const double ya = ly(yl0);
      const double yb = ly(yl1);
      add(layer, x0, std::min(ya, yb), x1, std::max(ya, yb), std::move(net),
          std::move(joint));
    };

    // Power rails (metal1, horizontal, full row width).
    add_local(Layer::Metal1, 0.0, 0.0, cols * px, r.rail_width, net_vdd());
    add_local(Layer::Metal1, 0.0, 1.28, cols * px, 1.28 + r.rail_width, net_gnd());

    // Wordline poly, full row width, carrying the row's stitch (open) site:
    // a break anywhere along the line maps onto the same electrical joint,
    // so the site weight scales with the full line length. Placed near the
    // mirror edge so that mirrored row pairs bring their wordlines within
    // bridging distance (0.3 um gap across the mirror line).
    add_local(Layer::Poly, 0.0, 1.30, cols * px, 1.30 + r.line_width,
              net_wl(row), joint_wordline(row));

    for (int col = 0; col < cols; ++col) {
      const double ox = col * px;
      // Internal node straps (metal1, vertical) — the classic intra-cell
      // bridge pair, also facing the bitlines and the power rails.
      add_local(Layer::Metal1, ox + 0.55, 0.32, ox + 0.55 + r.strap_width, 1.12,
                net_cell_t(row, col));
      add_local(Layer::Metal1, ox + 1.25, 0.32, ox + 1.25 + r.strap_width, 1.12,
                net_cell_f(row, col));
      // Metal2 landing tabs of the storage nodes face their bitlines — the
      // cell-node-to-bitline bridge sites (0.10 um spacing, minimum rule).
      add_local(Layer::Metal2, ox + 0.43, 0.55, ox + 0.60, 0.75,
                net_cell_t(row, col));
      add_local(Layer::Metal2, ox + 1.40, 0.55, ox + 1.57, 0.75,
                net_cell_f(row, col));
      // Access-transistor contact: the per-cell open site.
      add_local(Layer::Contact, ox + 0.42, 0.60, ox + 0.42 + r.via_size,
                0.60 + r.via_size, net_cell_t(row, col),
                joint_cell_access(row, col));
      // Pull-up supply contact: the per-cell data-retention open site.
      add_local(Layer::Contact, ox + 0.62, 0.06, ox + 0.62 + r.via_size,
                0.06 + r.via_size, net_vdd(), joint_cell_pullup(row, col));
    }
  }

  // Bitline pairs (metal2, vertical, full array height). bl hugs the left
  // edge of the column, blb the right edge — so blb(c) faces bl(c+1).
  const double height = rows * py;
  for (int col = 0; col < cols; ++col) {
    const double ox = col * px;
    // The bl line itself carries the column's stitch (open) site — a break
    // anywhere along it lands on the same electrical joint, so its weight
    // scales with the line length.
    add(Layer::Metal2, ox + 0.18, 0.0, ox + 0.18 + r.line_width, height,
        net_bl(col), joint_bitline(col));
    add(Layer::Metal2, ox + px - 0.18 - r.line_width, 0.0, ox + px - 0.18, height,
        net_blb(col));
    // Sense output via in the periphery strip below the array.
    add(Layer::Via, ox + 0.9, -0.8, ox + 0.9 + r.via_size, -0.8 + r.via_size,
        net_q(col), joint_sense(col));
  }

  // Row-address wiring to the left of the array (metal2, vertical), one
  // line per address bit, pitch 0.4 um, with the decoder-input via as the
  // registered open site. A vdd service strap runs alongside — this is the
  // adjacency that supplies the parasitic leak companion of decoder opens.
  const int address_bits = ceil_log2(rows);
  for (int bit = 0; bit < address_bits; ++bit) {
    const double x = -0.6 - 0.4 * bit;
    add(Layer::Metal2, x, 0.0, x + r.line_width, height, net_addr_in(bit));
    add(Layer::Via, x, -r.via_size, x + r.via_size, 0.0, net_addr_in(bit),
        joint_addr_input(bit));
  }
  const double strap_x = -0.6 - 0.4 * address_bits;
  add(Layer::Metal2, strap_x, 0.0, strap_x + r.line_width, height, net_vdd());

  return model;
}

}  // namespace memstress::layout
