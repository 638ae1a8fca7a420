#include "tech/sram6t.hpp"

#include <utility>

#include "sram/block.hpp"
#include "tester/ate.hpp"

namespace memstress::tech {

using defects::Defect;
using defects::DefectKind;
using estimator::CharacterizeSpec;
using estimator::DbEntry;
using estimator::GridPoint;

namespace {

class Sram6TContext final : public SweepContext {
 public:
  Sram6TContext(const CharacterizeSpec& spec, analog::SolverMode mode,
                std::vector<GridPoint> grid)
      : SweepContext(std::move(grid)),
        spec_(spec),
        mode_(mode),
        golden_(sram::build_block(spec.block)) {}

  bool simulate_point(std::size_t index, int rescue_level) override {
    const GridPoint& point = grid()[index];
    analog::Netlist faulty = golden_;
    defects::inject(faulty, point.defect);
    tester::AteOptions ate = spec_.ate;
    ate.rescue_level = rescue_level;
    const sram::StressPoint at{point.entry.vdd, point.entry.period};
    const tester::AnalogRun run = tester::run_march_analog(
        std::move(faulty), spec_.block, spec_.test, at, ate);
    return !run.log.passed();
  }

  /// Batched runs the cell's swept axis through the lockstep kernel; Exact,
  /// the scalar reference path, takes the per-lane default.
  std::vector<LaneResult> simulate_batch(
      const std::vector<std::size_t>& lanes) override {
    if (mode_ == analog::SolverMode::Exact)
      return SweepContext::simulate_batch(lanes);
    std::vector<LaneResult> results(lanes.size());
    if (lanes.empty()) return results;
    const GridPoint& lead = grid()[lanes.front()];
    analog::Netlist faulty = golden_;
    const analog::SweptElement swept = defects::inject(faulty, lead.defect);
    const bool vbd = swept.kind == analog::SweptElement::Kind::BreakdownVbd;
    std::vector<double> values;
    values.reserve(lanes.size());
    for (const std::size_t i : lanes)
      values.push_back(vbd ? grid()[i].entry.vbd : grid()[i].entry.resistance);
    const sram::StressPoint at{lead.entry.vdd, lead.entry.period};
    const std::vector<tester::BatchAnalogRun> runs =
        tester::run_march_analog_batch(std::move(faulty), spec_.block,
                                       spec_.test, at, swept, values,
                                       spec_.ate);
    for (std::size_t k = 0; k < lanes.size(); ++k) {
      if (!runs[k].ok) {
        results[k].error = runs[k].error;
        continue;
      }
      results[k].ok = true;
      results[k].detected = !runs[k].log.passed();
    }
    return results;
  }

 private:
  const CharacterizeSpec& spec_;
  analog::SolverMode mode_;
  analog::Netlist golden_;
};

class Sram6TModel final : public TechnologyModel {
 public:
  std::vector<GridPoint> build_grid(
      const CharacterizeSpec& spec) const override {
    std::vector<GridPoint> grid;
    const auto push = [&grid](const Defect& defect, DefectKind kind,
                              int category, double resistance, double vbd,
                              double vdd, double period) {
      DbEntry e;
      e.kind = kind;
      e.category = category;
      e.resistance = resistance;
      e.vbd = vbd;
      e.vdd = vdd;
      e.period = period;
      grid.push_back({defect, e});
    };

    for (const auto category :
         defects::simulatable_bridge_categories(spec.block)) {
      if (category == layout::BridgeCategory::CellGateOxide) {
        // Gate-oxide bridges sweep breakdown voltage at a fixed
        // post-breakdown resistance.
        for (const double vbd : spec.gox_vbds) {
          Defect defect = defects::representative_bridge(category, spec.block,
                                                         spec.gox_resistance);
          defect.breakdown_v = vbd;
          for (const double vdd : spec.vdds)
            for (const double period : spec.periods)
              push(defect, DefectKind::Bridge, static_cast<int>(category),
                   spec.gox_resistance, vbd, vdd, period);
        }
        continue;
      }
      for (const double r : spec.bridge_resistances) {
        const Defect defect =
            defects::representative_bridge(category, spec.block, r);
        for (const double vdd : spec.vdds)
          for (const double period : spec.periods)
            push(defect, DefectKind::Bridge, static_cast<int>(category), r,
                 0.0, vdd, period);
      }
    }
    for (const auto category :
         defects::simulatable_open_categories(spec.block)) {
      for (const double r : spec.open_resistances) {
        const Defect defect =
            defects::representative_open(category, spec.block, r);
        for (const double vdd : spec.vdds)
          for (const double period : spec.periods)
            push(defect, DefectKind::Open, static_cast<int>(category), r, 0.0,
                 vdd, period);
      }
    }
    return grid;
  }

  std::unique_ptr<SweepContext> make_context(
      const CharacterizeSpec& spec, analog::SolverMode mode) const override {
    return std::make_unique<Sram6TContext>(spec, mode, build_grid(spec));
  }

  void append_fingerprint(const CharacterizeSpec&,
                          std::string&) const override {
    // The SRAM axes (bridge/open R, vbd, rgox) already live in the shared
    // canon; nothing technology-specific to add.
  }
};

}  // namespace

const TechnologyModel& sram6t_model() {
  static const Sram6TModel model;
  return model;
}

}  // namespace memstress::tech
