#include "tech/sram6t.hpp"

#include <utility>

#include "analog/engine.hpp"
#include "sram/block.hpp"
#include "tester/ate.hpp"

namespace memstress::tech {

using defects::Defect;
using defects::DefectKind;
using estimator::CharacterizeSpec;
using estimator::DbEntry;

std::vector<SramTask> build_sram_tasks(const CharacterizeSpec& spec) {
  std::vector<SramTask> tasks;
  const auto push = [&tasks](const Defect& defect, DefectKind kind,
                             int category, double resistance, double vbd,
                             double vdd, double period) {
    DbEntry e;
    e.kind = kind;
    e.category = category;
    e.resistance = resistance;
    e.vbd = vbd;
    e.vdd = vdd;
    e.period = period;
    tasks.push_back({defect, e});
  };

  for (const auto category : defects::simulatable_bridge_categories(spec.block)) {
    if (category == layout::BridgeCategory::CellGateOxide) {
      // Gate-oxide bridges sweep breakdown voltage at a fixed post-breakdown
      // resistance.
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
      const Defect defect = defects::representative_bridge(category, spec.block, r);
      for (const double vdd : spec.vdds)
        for (const double period : spec.periods)
          push(defect, DefectKind::Bridge, static_cast<int>(category), r, 0.0,
               vdd, period);
    }
  }
  for (const auto category : defects::simulatable_open_categories(spec.block)) {
    for (const double r : spec.open_resistances) {
      const Defect defect = defects::representative_open(category, spec.block, r);
      for (const double vdd : spec.vdds)
        for (const double period : spec.periods)
          push(defect, DefectKind::Open, static_cast<int>(category), r, 0.0,
               vdd, period);
    }
  }
  return tasks;
}

namespace {

class Sram6TContext final : public SweepContext {
 public:
  explicit Sram6TContext(const CharacterizeSpec& spec)
      : spec_(spec),
        tasks_(build_sram_tasks(spec)),
        golden_(sram::build_block(spec.block)) {}

  bool simulate_point(std::size_t index, int rescue_level) override {
    const SramTask& task = tasks_[index];
    analog::Netlist faulty = golden_;
    defects::inject(faulty, task.defect);
    tester::AteOptions ate = spec_.ate;
    ate.rescue_level = rescue_level;
    const sram::StressPoint at{task.entry.vdd, task.entry.period};
    const tester::AnalogRun run = tester::run_march_analog(
        std::move(faulty), spec_.block, spec_.test, at, ate);
    return !run.log.passed();
  }

  std::vector<LaneResult> simulate_batch(
      const std::vector<std::size_t>& lanes) override {
    std::vector<LaneResult> results(lanes.size());
    if (lanes.empty()) return results;
    const SramTask& lead = tasks_[lanes.front()];
    analog::Netlist faulty = golden_;
    defects::inject(faulty, lead.defect);
    // Locate the swept element the injection just produced: bridges append
    // the last resistor (or breakdown), opens retarget the joint resistor.
    analog::SweptElement swept;
    std::vector<double> values;
    values.reserve(lanes.size());
    if (lead.entry.kind == DefectKind::Open) {
      swept.kind = analog::SweptElement::Kind::ResistorOhms;
      swept.index = faulty.joint_resistor_index(lead.defect.net_a);
      for (const std::size_t i : lanes)
        values.push_back(tasks_[i].entry.resistance);
    } else if (lead.defect.breakdown_v > 0.0) {
      swept.kind = analog::SweptElement::Kind::BreakdownVbd;
      swept.index = faulty.breakdowns().size() - 1;
      for (const std::size_t i : lanes) values.push_back(tasks_[i].entry.vbd);
    } else {
      swept.kind = analog::SweptElement::Kind::ResistorOhms;
      swept.index = faulty.resistors().size() - 1;
      for (const std::size_t i : lanes)
        values.push_back(tasks_[i].entry.resistance);
    }
    const sram::StressPoint at{lead.entry.vdd, lead.entry.period};
    const std::vector<tester::BatchAnalogRun> runs =
        tester::run_march_analog_batch(std::move(faulty), spec_.block,
                                       spec_.test, at, swept, values,
                                       spec_.ate);
    for (std::size_t k = 0; k < lanes.size(); ++k) {
      if (!runs[k].ok) {
        results[k].error =
            std::string(analog::solver_failure_name(runs[k].failure)) + ": " +
            runs[k].error;
        continue;
      }
      results[k].ok = true;
      results[k].detected = !runs[k].log.passed();
    }
    return results;
  }

 private:
  const CharacterizeSpec& spec_;
  std::vector<SramTask> tasks_;
  analog::Netlist golden_;
};

class Sram6TModel final : public TechnologyModel {
 public:
  Technology technology() const override { return Technology::Sram6T; }

  std::vector<estimator::GridPoint> build_grid(
      const CharacterizeSpec& spec) const override {
    const std::vector<SramTask> tasks = build_sram_tasks(spec);
    std::vector<estimator::GridPoint> grid;
    grid.reserve(tasks.size());
    for (const SramTask& t : tasks) grid.push_back({t.defect.tag(), t.entry});
    return grid;
  }

  std::unique_ptr<SweepContext> make_context(
      const CharacterizeSpec& spec, analog::SolverMode) const override {
    return std::make_unique<Sram6TContext>(spec);
  }

  bool batched() const override { return true; }

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
