#include "defects/sampler.hpp"

#include <algorithm>
#include <map>

#include "util/error.hpp"

namespace memstress::defects {

using layout::BridgeCategory;
using layout::OpenCategory;

double SitePopulation::bridge_weight_total() const {
  double total = 0.0;
  for (const auto& [cat, w] : bridges) total += w;
  return total;
}

double SitePopulation::open_weight_total() const {
  double total = 0.0;
  for (const auto& [cat, w] : opens) total += w;
  return total;
}

SitePopulation aggregate_sites(const std::vector<layout::BridgeSite>& bridges,
                               const std::vector<layout::OpenSite>& opens) {
  std::map<BridgeCategory, double> bridge_weight;
  for (const auto& site : bridges) bridge_weight[site.category] += site.weight;
  std::map<OpenCategory, double> open_weight;
  for (const auto& site : opens) open_weight[site.category] += site.weight;

  SitePopulation population;
  for (const auto& [cat, w] : bridge_weight) population.bridges.emplace_back(cat, w);
  for (const auto& [cat, w] : open_weight) population.opens.emplace_back(cat, w);
  return population;
}

DefectSampler::DefectSampler(SitePopulation population, FabModel fab,
                             sram::BlockSpec spec)
    : population_(std::move(population)), fab_(fab), spec_(spec) {
  // Drop categories the simulation block cannot host (they would otherwise
  // sample un-injectable defects); the remaining weights renormalize
  // implicitly inside Rng::weighted_index.
  const auto sim_bridges = simulatable_bridge_categories(spec_);
  std::erase_if(population_.bridges, [&](const auto& entry) {
    return std::find(sim_bridges.begin(), sim_bridges.end(), entry.first) ==
           sim_bridges.end();
  });
  require(!population_.bridges.empty() || !population_.opens.empty(),
          "DefectSampler: empty site population");
  for (const auto& [cat, w] : population_.bridges) {
    bridge_weights_.push_back(w);
    bridge_templates_.push_back(representative_bridge(cat, spec_, 0.0));
  }
  for (const auto& [cat, w] : population_.opens) {
    open_weights_.push_back(w);
    std::optional<Defect> representative;
    try {
      representative = representative_open(cat, spec_, 0.0);
    } catch (const Error&) {
      // No representative (Other): sample() throws when it is drawn.
    }
    open_templates_.push_back(std::move(representative));
  }
}

DefectSampler::DefectSampler(MtjFabModel mtj, sram::BlockSpec spec)
    : mtj_fab_(mtj), spec_(spec), mtj_mode_(true) {
  require(mtj_fab_.retention_fraction >= 0.0 &&
              mtj_fab_.transition_fraction >= 0.0 &&
              mtj_fab_.retention_fraction + mtj_fab_.transition_fraction <= 1.0,
          "DefectSampler: MTJ category mix fractions out of range");
  for (const MtjFaultCategory category : simulatable_mtj_categories(spec_))
    mtj_templates_.push_back(representative_mtj(category, spec_, 0.0));
}

Defect DefectSampler::sample(Rng& rng) const {
  if (mtj_mode_) {
    // Resistance before category: the order every MTJ study was drawn in.
    const double resistance = mtj_fab_.sample_resistance(rng);
    Defect defect =
        mtj_templates_[static_cast<std::size_t>(mtj_fab_.sample_category(rng))];
    defect.resistance = resistance;
    return defect;
  }
  const bool is_bridge =
      !bridge_weights_.empty() &&
      (open_weights_.empty() || rng.chance(fab_.bridge_fraction));
  if (is_bridge) {
    const std::size_t pick = rng.weighted_index(bridge_weights_);
    Defect defect = bridge_templates_[pick];
    if (population_.bridges[pick].first == BridgeCategory::CellGateOxide) {
      defect.resistance = fab_.sample_gox_resistance(rng);
      defect.breakdown_v = fab_.sample_gox_vbd(rng);
    } else {
      defect.resistance = fab_.sample_bridge_resistance(rng);
    }
    return defect;
  }
  const std::size_t pick = rng.weighted_index(open_weights_);
  const double resistance = fab_.sample_open_resistance(rng);
  if (!open_templates_[pick])
    return representative_open(population_.opens[pick].first, spec_,
                               resistance);  // throws
  Defect defect = *open_templates_[pick];
  defect.resistance = resistance;
  return defect;
}

}  // namespace memstress::defects
