#include "tech/undervolt.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "tech/sram6t.hpp"
#include "util/error.hpp"

namespace memstress::tech {

using defects::DefectKind;
using estimator::CharacterizeSpec;
using estimator::DbEntry;
using layout::BridgeCategory;
using layout::OpenCategory;

namespace {

/// How hard a dead short of this bridge category hits the cell margin.
/// Intra-cell shorts are catastrophic; inter-column ones split their damage.
double bridge_severity(BridgeCategory category) {
  switch (category) {
    case BridgeCategory::CellTrueFalse: return 1.0;
    case BridgeCategory::CellNodeBitline: return 0.80;
    case BridgeCategory::CellNodeVdd: return 0.70;
    case BridgeCategory::CellNodeGnd: return 0.70;
    case BridgeCategory::BitlineBitline: return 0.50;
    case BridgeCategory::WordlineWordline: return 0.90;
    case BridgeCategory::AddressAddress: return 0.90;
    case BridgeCategory::AddressVdd: return 0.85;
    case BridgeCategory::CellGateOxide: return 0.75;
    case BridgeCategory::Other: return 0.50;
  }
  throw Error("undervolt: unknown bridge category");
}

/// How hard a hard break of this open category hits the cell margin.
double open_severity(OpenCategory category) {
  switch (category) {
    case OpenCategory::CellAccess: return 0.90;
    case OpenCategory::CellPullup: return 0.80;
    case OpenCategory::Wordline: return 0.95;
    case OpenCategory::AddressInput: return 0.90;
    case OpenCategory::Bitline: return 0.70;
    case OpenCategory::SenseOut: return 0.85;
    case OpenCategory::Other: return 0.50;
  }
  throw Error("undervolt: unknown open category");
}

constexpr double kProductionPeriod = 25e-9;
constexpr double kSqrt2 = 1.4142135623730951;

}  // namespace

double undervolt_healthy_margin(const UndervoltSpec& spec, double vdd) {
  if (vdd >= spec.v_safe)
    return spec.margin_nominal * (1.0 + 0.35 * (vdd - spec.v_safe));
  const double frac = (vdd - spec.v_cliff) / (spec.v_safe - spec.v_cliff);
  return spec.margin_nominal * std::clamp(frac, 0.0, 1.0);
}

double undervolt_degradation(const UndervoltSpec& spec, const DbEntry& entry) {
  if (entry.kind == DefectKind::Bridge) {
    // A gate-oxide pinhole conducts nothing until the supply exceeds its
    // breakdown voltage — exactly the Vmax-screen behaviour of the analog
    // backend.
    if (entry.vbd > 0.0 && entry.vdd <= entry.vbd) return 0.0;
    return bridge_severity(static_cast<BridgeCategory>(entry.category)) *
           spec.r_char_bridge / (entry.resistance + spec.r_char_bridge);
  }
  // Opens: the weak joint's RC delay eats margin fastest at speed — the
  // characteristic resistance scales with the period, so a fast clock moves
  // the detectability band to lower resistances.
  const double r_char = spec.r_char_open * entry.period / kProductionPeriod;
  return open_severity(static_cast<OpenCategory>(entry.category)) *
         entry.resistance / (entry.resistance + r_char);
}

double undervolt_ber(const UndervoltSpec& spec, double margin) {
  return 0.5 * std::erfc(margin / (spec.sigma * kSqrt2));
}

bool undervolt_detected(const UndervoltSpec& spec, const DbEntry& entry,
                        double ops) {
  const double margin = undervolt_healthy_margin(spec, entry.vdd) *
                        (1.0 - undervolt_degradation(spec, entry));
  return undervolt_ber(spec, margin) * ops >= 0.5;
}

namespace {

class UndervoltContext final : public SweepContext {
 public:
  UndervoltContext(const CharacterizeSpec& spec,
                   std::vector<estimator::GridPoint> grid)
      : SweepContext(std::move(grid)),
        spec_(spec),
        ops_(static_cast<double>(spec.block.rows) * spec.block.cols *
             spec.test.complexity()) {}

  bool simulate_point(std::size_t index, int /*rescue_level*/) override {
    return undervolt_detected(spec_.undervolt, grid()[index].entry, ops_);
  }

 private:
  const CharacterizeSpec& spec_;
  double ops_;
};

class UndervoltModel final : public TechnologyModel {
 public:
  std::vector<estimator::GridPoint> build_grid(
      const CharacterizeSpec& spec) const override {
    // The SRAM-6T grid, verbatim: same sites, same axes, same order.
    return sram6t_model().build_grid(spec);
  }

  std::unique_ptr<SweepContext> make_context(
      const CharacterizeSpec& spec, analog::SolverMode) const override {
    return std::make_unique<UndervoltContext>(spec, build_grid(spec));
  }

  void append_fingerprint(const CharacterizeSpec& spec,
                          std::string& canon) const override {
    char buffer[32];
    const double params[] = {spec.undervolt.v_safe,
                             spec.undervolt.v_cliff,
                             spec.undervolt.margin_nominal,
                             spec.undervolt.sigma,
                             spec.undervolt.r_char_bridge,
                             spec.undervolt.r_char_open};
    canon += "|uv";
    for (const double v : params) {
      std::snprintf(buffer, sizeof buffer, " %.9g", v);
      canon += buffer;
    }
  }
};

}  // namespace

const TechnologyModel& undervolt_model() {
  static const UndervoltModel model;
  return model;
}

}  // namespace memstress::tech
