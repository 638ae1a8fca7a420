// SRAM-6T backend: the original transistor-level analog characterization
// flow, refactored behind the TechnologyModel interface.
#pragma once

#include "tech/model.hpp"

namespace memstress::tech {

/// The SRAM-6T model. Its build_grid() is the canonical SRAM-6T grid
/// enumeration: bridge categories (gate-oxide sweeping vbd at a fixed
/// resistance, the rest sweeping the bridge R axis), then open categories
/// sweeping the open R axis, each crossed with vdd x period in spec order.
/// The undervolt backend reuses this grid verbatim so its injected
/// population is directly comparable.
const TechnologyModel& sram6t_model();

}  // namespace memstress::tech
