#include "tech/model.hpp"

#include "analog/engine.hpp"
#include "march/library.hpp"
#include "tech/sram6t.hpp"
#include "tech/stt_mram.hpp"
#include "tech/undervolt.hpp"
#include "util/error.hpp"

namespace memstress::tech {

std::vector<LaneResult> SweepContext::simulate_batch(
    const std::vector<std::size_t>& lanes) {
  std::vector<LaneResult> results(lanes.size());
  for (std::size_t k = 0; k < lanes.size(); ++k) {
    try {
      results[k].detected = simulate_point(lanes[k], 0);
      results[k].ok = true;
    } catch (const analog::SolverError& e) {
      results[k].error = e.reason();
    }
  }
  return results;
}

const TechnologyModel& model_for(Technology technology) {
  switch (technology) {
    case Technology::Sram6T: return sram6t_model();
    case Technology::SttMram: return stt_mram_model();
    case Technology::Undervolt: return undervolt_model();
  }
  throw Error("model_for: unknown technology");
}

estimator::CharacterizeSpec default_characterize_spec(Technology technology) {
  estimator::CharacterizeSpec spec;
  spec.technology = technology;
  spec.test = technology == Technology::SttMram ? march::march_hammer()
                                                : march::test_11n();
  if (technology == Technology::Undervolt) {
    // Extend the Vdd axis below VLV so the bit-error-rate cliff is swept;
    // the standard corners stay so Table-1 reads off the same conditions.
    spec.vdds = {0.6, 0.7, 0.8, 0.9, 1.0, 1.65, 1.8, 1.95};
  }
  return spec;
}

}  // namespace memstress::tech
