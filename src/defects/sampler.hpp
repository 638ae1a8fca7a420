// Monte-Carlo defect sampling: combines the IFA site populations (relative
// weights per category) with the fab model (defect kind mix, resistance
// distributions) to draw the defects of one simulated device.
#pragma once

#include <optional>
#include <vector>

#include "defects/defect.hpp"
#include "defects/distributions.hpp"
#include "layout/critical_area.hpp"
#include "util/rng.hpp"

namespace memstress::defects {

/// Aggregated IFA site populations: total relative weight per category.
struct SitePopulation {
  std::vector<std::pair<layout::BridgeCategory, double>> bridges;
  std::vector<std::pair<layout::OpenCategory, double>> opens;

  double bridge_weight_total() const;
  double open_weight_total() const;
};

/// Aggregate extracted sites into per-category weights.
SitePopulation aggregate_sites(const std::vector<layout::BridgeSite>& bridges,
                               const std::vector<layout::OpenSite>& opens);

/// Draws defect kind, category and resistance. The sampled defect is
/// expressed as the category's representative site on `spec`'s block, which
/// is what both the analog path and the detectability DB consume. The
/// representatives are built once, with the sampler: a draw copies one and
/// sets the parameters it drew.
class DefectSampler {
 public:
  DefectSampler(SitePopulation population, FabModel fab, sram::BlockSpec spec);

  /// MTJ-mode sampler: every drawn defect is one defective junction whose
  /// fault class and parallel-state resistance come from the MTJ fab model
  /// (there is no IFA site population — the junction array is uniform).
  DefectSampler(MtjFabModel mtj, sram::BlockSpec spec);

  Defect sample(Rng& rng) const;

  /// Poisson mean of defects in `area_um2` at this sampler's density: the
  /// MTJ fab model's in MTJ mode, the conductor fab model's otherwise.
  double expected_defects(double area_um2) const {
    return mtj_mode_ ? mtj_fab_.expected_defects(area_um2)
                     : fab_.expected_defects(area_um2);
  }

  const SitePopulation& population() const { return population_; }
  const FabModel& fab() const { return fab_; }
  const MtjFabModel& mtj_fab() const { return mtj_fab_; }

 private:
  SitePopulation population_;
  FabModel fab_;
  MtjFabModel mtj_fab_;
  sram::BlockSpec spec_;
  std::vector<double> bridge_weights_;
  std::vector<double> open_weights_;
  /// The representative of each population entry, in population order.
  /// Every bridge entry kept has one; an open category without one (Other)
  /// has none and throws when drawn.
  std::vector<Defect> bridge_templates_;
  std::vector<std::optional<Defect>> open_templates_;
  std::vector<Defect> mtj_templates_;  ///< indexed by MtjFaultCategory
  bool mtj_mode_ = false;
};

}  // namespace memstress::defects
