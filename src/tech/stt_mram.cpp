#include "tech/stt_mram.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "defects/defect.hpp"
#include "util/error.hpp"

namespace memstress::tech {

using defects::MtjFaultCategory;
using estimator::CharacterizeSpec;
using estimator::DbEntry;

namespace {
constexpr double kLn2 = 0.6931471805599453;
}

double mtj_delta_eff(const SttMramSpec& spec, double r) {
  return spec.delta_nominal * std::pow(r / spec.r_parallel, 1.5);
}

double mtj_critical_current(const SttMramSpec& spec, double delta_eff) {
  return (spec.v_c0 / spec.r_parallel) * (delta_eff / spec.delta_nominal);
}

int hammer_read_count(const march::MarchTest& test) {
  int best = 0;
  for (const march::MarchElement& element : test.elements) {
    int run = 0;
    for (const march::MarchOp& op : element.ops) {
      run = op.is_read ? run + 1 : 0;
      best = std::max(best, run);
    }
  }
  return std::max(best, 1);
}

bool mtj_retention_detected(const SttMramSpec& spec, double r, double vdd) {
  const double delta_biased =
      mtj_delta_eff(spec, r) * (1.0 - 0.15 * vdd / 1.8);
  // exp() overflows to +inf for very stable junctions; the comparison then
  // correctly reports "no flip".
  return spec.retention_time >=
         spec.attempt_time * std::exp(delta_biased) * kLn2;
}

bool mtj_transition_detected(const SttMramSpec& spec, double r, double vdd,
                             double period) {
  const double delta_eff = mtj_delta_eff(spec, r);
  const double i_write = vdd / (r + spec.access_resistance);
  const double t_pulse = spec.pulse_fraction * period;
  const double i_c =
      mtj_critical_current(spec, delta_eff) *
      (1.0 - std::log(t_pulse / spec.attempt_time) / delta_eff);
  return i_write < i_c;
}

bool mtj_read_disturb_detected(const SttMramSpec& spec, double r, double vdd,
                               int hammer_reads) {
  const double delta_eff = mtj_delta_eff(spec, r);
  const double i_read = spec.read_fraction * vdd / (r + spec.access_resistance);
  const double i_c = mtj_critical_current(spec, delta_eff);
  double p = 1.0;
  if (i_read < i_c) p = std::exp(-delta_eff * (1.0 - i_read / i_c));
  const double p_any = 1.0 - std::pow(1.0 - p, hammer_reads);
  return p_any >= 0.5;
}

namespace {

class SttMramContext final : public SweepContext {
 public:
  SttMramContext(const CharacterizeSpec& spec,
                 std::vector<estimator::GridPoint> grid)
      : SweepContext(std::move(grid)),
        spec_(spec),
        hammer_reads_(hammer_read_count(spec.test)) {}

  bool simulate_point(std::size_t index, int /*rescue_level*/) override {
    const DbEntry& e = grid()[index].entry;
    switch (static_cast<MtjFaultCategory>(e.category)) {
      case MtjFaultCategory::Retention:
        return mtj_retention_detected(spec_.mtj, e.resistance, e.vdd);
      case MtjFaultCategory::Transition:
        return mtj_transition_detected(spec_.mtj, e.resistance, e.vdd,
                                       e.period);
      case MtjFaultCategory::ReadDisturb:
        return mtj_read_disturb_detected(spec_.mtj, e.resistance, e.vdd,
                                         hammer_reads_);
    }
    throw Error("stt_mram: unknown MTJ fault category");
  }

 private:
  const CharacterizeSpec& spec_;
  int hammer_reads_;
};

class SttMramModel final : public TechnologyModel {
 public:
  std::vector<estimator::GridPoint> build_grid(
      const CharacterizeSpec& spec) const override {
    require(!spec.mtj.resistances.empty(),
            "stt_mram: SttMramSpec::resistances must not be empty");
    std::vector<estimator::GridPoint> grid;
    for (const MtjFaultCategory category :
         defects::simulatable_mtj_categories(spec.block)) {
      for (const double r : spec.mtj.resistances) {
        const defects::Defect defect =
            defects::representative_mtj(category, spec.block, r);
        for (const double vdd : spec.vdds) {
          for (const double period : spec.periods) {
            DbEntry e;
            e.kind = defects::DefectKind::Mtj;
            e.category = static_cast<int>(category);
            e.resistance = r;
            e.vbd = 0.0;
            e.vdd = vdd;
            e.period = period;
            grid.push_back({defect, e});
          }
        }
      }
    }
    return grid;
  }

  std::unique_ptr<SweepContext> make_context(
      const CharacterizeSpec& spec, analog::SolverMode) const override {
    return std::make_unique<SttMramContext>(spec, build_grid(spec));
  }

  void append_fingerprint(const CharacterizeSpec& spec,
                          std::string& canon) const override {
    char buffer[32];
    canon += "|rmtj";
    for (const double r : spec.mtj.resistances) {
      std::snprintf(buffer, sizeof buffer, " %.9g", r);
      canon += buffer;
    }
    const double params[] = {spec.mtj.r_parallel,      spec.mtj.tmr,
                             spec.mtj.delta_nominal,   spec.mtj.v_c0,
                             spec.mtj.access_resistance,
                             spec.mtj.pulse_fraction,  spec.mtj.read_fraction,
                             spec.mtj.retention_time,  spec.mtj.attempt_time};
    canon += "|mtj";
    for (const double v : params) {
      std::snprintf(buffer, sizeof buffer, " %.9g", v);
      canon += buffer;
    }
  }
};

}  // namespace

const TechnologyModel& stt_mram_model() {
  static const SttMramModel model;
  return model;
}

}  // namespace memstress::tech
