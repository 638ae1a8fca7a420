#include "estimator/coverage.hpp"

#include <cmath>
#include <limits>
#include <memory>

#include <cstdio>

#include "defects/defect.hpp"
#include "estimator/dpm.hpp"
#include "layout/sram_layout.hpp"
#include "util/bits.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/table.hpp"
#include "util/trace.hpp"

namespace memstress::estimator {

using defects::DefectKind;
using layout::BridgeCategory;
using layout::OpenCategory;

int MemoryGeometry::address_bits() const { return ceil_log2(x_rows); }

double MemoryGeometry::conductor_area_um2(double area_per_cell_um2) const {
  return static_cast<double>(cells()) * area_per_cell_um2;
}

PopulationModel PopulationModel::calibrate(int ref_rows, int ref_cols) {
  require(ref_rows >= 4 && ref_cols >= 2,
          "PopulationModel::calibrate: reference block too small");
  const layout::LayoutModel model = layout::generate_sram_layout(ref_rows, ref_cols);
  const auto bridges = layout::extract_bridges(model);
  const auto opens = layout::extract_opens(model);

  PopulationModel pm;
  const double cells = static_cast<double>(ref_rows) * ref_cols;
  for (const auto& site : bridges) {
    double& unit = pm.bridge_unit_[site.category];
    switch (site.category) {
      case BridgeCategory::BitlineBitline:
        unit += site.weight / ((ref_cols - 1) * static_cast<double>(ref_rows));
        break;
      case BridgeCategory::WordlineWordline:
        unit += site.weight / ((ref_rows / 2) * static_cast<double>(ref_cols));
        break;
      case BridgeCategory::AddressAddress:
        unit += site.weight / (std::max(ceil_log2(ref_rows) - 1, 1) *
                               static_cast<double>(ref_rows));
        break;
      case BridgeCategory::AddressVdd:
        unit += site.weight / static_cast<double>(ref_rows);
        break;
      default:
        unit += site.weight / cells;  // cell-local categories
        break;
    }
  }
  for (const auto& site : opens) {
    double& unit = pm.open_unit_[site.category];
    switch (site.category) {
      case OpenCategory::Wordline:
        unit += site.weight / static_cast<double>(ref_rows);
        break;
      case OpenCategory::AddressInput:
        unit += site.weight / std::max(ceil_log2(ref_rows), 1);
        break;
      case OpenCategory::Bitline:
      case OpenCategory::SenseOut:
        unit += site.weight / static_cast<double>(ref_cols);
        break;
      default:
        unit += site.weight / cells;  // cell-local
        break;
    }
  }
  return pm;
}

ScaledPopulation PopulationModel::scale(const MemoryGeometry& g) const {
  ScaledPopulation scaled;
  const double cells = static_cast<double>(g.cells());
  const double columns = g.physical_columns();
  const double rows = g.x_rows;
  const double blocks = g.z_blocks;
  const int bits = g.address_bits();

  for (const auto& [category, unit] : bridge_unit_) {
    double count = 0.0;
    switch (category) {
      case BridgeCategory::BitlineBitline:
        count = (columns - 1) * rows * blocks;
        break;
      case BridgeCategory::WordlineWordline:
        count = (rows / 2) * columns * blocks;
        break;
      case BridgeCategory::AddressAddress:
        count = std::max(bits - 1, 1) * rows * blocks;
        break;
      case BridgeCategory::AddressVdd:
        count = rows * blocks;
        break;
      default:
        count = cells;
        break;
    }
    scaled.bridges[category] = unit * count;
  }
  for (const auto& [category, unit] : open_unit_) {
    double count = 0.0;
    switch (category) {
      case OpenCategory::Wordline: count = rows * blocks; break;
      case OpenCategory::AddressInput: count = bits * blocks; break;
      case OpenCategory::Bitline:
      case OpenCategory::SenseOut: count = columns * blocks; break;
      default: count = cells; break;
    }
    scaled.opens[category] = unit * count;
  }
  return scaled;
}

std::string EstimatorReport::to_csv() const {
  std::vector<std::string> header{"condition", "vdd"};
  for (const double r : resistance_bins)
    header.push_back("fc_" + fmt_resistance(r));
  header.push_back("defect_coverage");
  header.push_back("dpm");
  header.push_back("dpm_ratio");
  CsvWriter csv(std::move(header));
  const auto num = [](double v) {
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%.6g", v);
    return std::string(buffer);
  };
  for (const auto& row : rows) {
    std::vector<std::string> cells{row.label, num(row.vdd)};
    for (const double fc : row.fc_by_resistance) cells.push_back(num(fc));
    cells.push_back(num(row.defect_coverage));
    cells.push_back(num(row.dpm_value));
    cells.push_back(num(row.dpm_ratio));
    csv.add_row(std::move(cells));
  }
  return csv.to_string();
}

FaultCoverageEstimator::FaultCoverageEstimator(DetectabilityDb db,
                                               PopulationModel population,
                                               defects::FabModel fab,
                                               defects::MtjFabModel mtj_fab)
    : db_(std::make_shared<const DetectabilityDb>(std::move(db))),
      population_(std::move(population)),
      fab_(fab),
      mtj_fab_(std::move(mtj_fab)) {}

FaultCoverageEstimator::FaultCoverageEstimator(
    std::shared_ptr<const DetectabilityDb> db, PopulationModel population,
    defects::FabModel fab, defects::MtjFabModel mtj_fab)
    : db_(std::move(db)),
      population_(std::move(population)),
      fab_(fab),
      mtj_fab_(std::move(mtj_fab)) {
  require(db_ != nullptr, "FaultCoverageEstimator: null database");
}

double FaultCoverageEstimator::bridge_fault_coverage(
    const MemoryGeometry& geometry, double resistance,
    const sram::StressPoint& at) const {
  const ScaledPopulation scaled = population_.scale(geometry);
  double covered = 0.0;
  double total = 0.0;
  for (const auto& [category, weight] : scaled.bridges) {
    // Table 1 is about *ohmic* resistive bridges; threshold-conducting
    // gate-oxide pinholes live on a different parameter axis.
    if (category == BridgeCategory::CellGateOxide) continue;
    bool hit;
    try {
      hit = db_->detected(DefectKind::Bridge, static_cast<int>(category),
                         resistance, at.vdd, at.period);
    } catch (const Error&) {
      continue;  // category not characterized on this block: skip its weight
    }
    total += weight;
    if (hit) covered += weight;
  }
  require(total > 0.0, "bridge_fault_coverage: no characterized categories");
  return covered / total;
}

double FaultCoverageEstimator::open_fault_coverage(
    const MemoryGeometry& geometry, const sram::StressPoint& at) const {
  const ScaledPopulation scaled = population_.scale(geometry);
  // Integrate over the fab's open-resistance range on a log grid fine
  // enough to register the narrow Vmax-only and at-speed-only bands.
  constexpr int kSteps = 101;
  double covered = 0.0;
  double total = 0.0;
  for (const auto& [category, weight] : scaled.opens) {
    for (int i = 0; i < kSteps; ++i) {
      const double f = (i + 0.5) / kSteps;
      const double r = fab_.open_min_ohms *
                       std::pow(fab_.open_max_ohms / fab_.open_min_ohms, f);
      bool hit;
      try {
        hit = db_->detected(DefectKind::Open, static_cast<int>(category), r,
                           at.vdd, at.period);
      } catch (const Error&) {
        continue;
      }
      total += weight / kSteps;
      if (hit) covered += weight / kSteps;
    }
  }
  require(total > 0.0, "open_fault_coverage: no characterized categories");
  return covered / total;
}

double FaultCoverageEstimator::bridge_defect_coverage(
    const MemoryGeometry& geometry, const sram::StressPoint& at) const {
  double coverage = 0.0;
  double mass = 0.0;
  for (const auto& bin : fab_.bridge_bins) {
    coverage += bin.probability *
                bridge_fault_coverage(geometry, bin.ohms, at);
    mass += bin.probability;
  }
  require(mass > 0.0, "bridge_defect_coverage: empty resistance bins");
  return coverage / mass;
}

double FaultCoverageEstimator::mtj_fault_coverage(
    const MemoryGeometry& geometry, double resistance,
    const sram::StressPoint& at) const {
  (void)geometry;  // all MTJ fault classes are cell-local
  const defects::MtjFaultCategory categories[] = {
      defects::MtjFaultCategory::Retention,
      defects::MtjFaultCategory::Transition,
      defects::MtjFaultCategory::ReadDisturb};
  const double weights[] = {
      mtj_fab_.retention_fraction, mtj_fab_.transition_fraction,
      1.0 - mtj_fab_.retention_fraction - mtj_fab_.transition_fraction};
  double covered = 0.0;
  double total = 0.0;
  for (int k = 0; k < 3; ++k) {
    bool hit;
    try {
      hit = db_->detected(DefectKind::Mtj, static_cast<int>(categories[k]),
                          resistance, at.vdd, at.period);
    } catch (const Error&) {
      continue;  // fault class not characterized: skip its weight
    }
    total += weights[k];
    if (hit) covered += weights[k];
  }
  require(total > 0.0, "mtj_fault_coverage: no characterized MTJ categories");
  return covered / total;
}

double FaultCoverageEstimator::mtj_defect_coverage(
    const MemoryGeometry& geometry, const sram::StressPoint& at) const {
  double coverage = 0.0;
  double mass = 0.0;
  for (const auto& bin : mtj_fab_.resistance_bins) {
    coverage += bin.probability * mtj_fault_coverage(geometry, bin.ohms, at);
    mass += bin.probability;
  }
  require(mass > 0.0, "mtj_defect_coverage: empty resistance bins");
  return coverage / mass;
}

EstimatorReport FaultCoverageEstimator::table1(const MemoryGeometry& geometry,
                                               double vlv_period,
                                               double production_period) const {
  trace::Span span("estimator.table1");
  {
    static metrics::Counter& reports =
        metrics::counter("estimator.table1_reports");
    reports.add(1);
  }
  // An STT-MRAM database reads out of the MTJ columns: deviated-R_P bins,
  // fault-class-mix coverage, MTJ fab defect density. SRAM-6T and undervolt
  // databases (same bridge/open grid) use the bridge columns.
  const bool is_mtj = db_->technology() == tech::Technology::SttMram;
  const std::vector<defects::ResistanceBin>& bins =
      is_mtj ? mtj_fab_.resistance_bins : fab_.bridge_bins;

  EstimatorReport report;
  for (const auto& bin : bins) report.resistance_bins.push_back(bin.ohms);
  report.yield = poisson_yield(geometry.conductor_area_um2(),
                               is_mtj ? mtj_fab_.defect_density_per_um2
                                      : fab_.defect_density_per_um2);
  report.quarantined = db_->quarantine().size();

  // Quarantined grid points have unknown verdicts: bracket the coverage by
  // materializing them under the two extreme assumptions. Skipped entirely
  // when the quarantine is empty so the default path stays untouched.
  std::unique_ptr<FaultCoverageEstimator> worst;
  std::unique_ptr<FaultCoverageEstimator> best;
  if (report.quarantined > 0) {
    worst = std::make_unique<FaultCoverageEstimator>(
        db_->with_quarantine_assumed(false), population_, fab_, mtj_fab_);
    best = std::make_unique<FaultCoverageEstimator>(
        db_->with_quarantine_assumed(true), population_, fab_, mtj_fab_);
  }

  const struct {
    const char* label;
    double vdd;
    double period;
  } corners[] = {{"1.00 - VLV", 1.0, vlv_period},
                 {"1.65 - Vmin", 1.65, production_period},
                 {"1.80 - Vnom", 1.8, production_period},
                 {"1.95 - Vmax", 1.95, production_period}};

  double vlv_dpm = 0.0;
  for (const auto& corner : corners) {
    CoverageRow row;
    row.label = corner.label;
    row.vdd = corner.vdd;
    const sram::StressPoint at{corner.vdd, corner.period};
    for (const auto& bin : bins)
      row.fc_by_resistance.push_back(
          is_mtj ? mtj_fault_coverage(geometry, bin.ohms, at)
                 : bridge_fault_coverage(geometry, bin.ohms, at));
    row.defect_coverage = is_mtj ? mtj_defect_coverage(geometry, at)
                                 : bridge_defect_coverage(geometry, at);
    row.dpm_value = dpm(report.yield, row.defect_coverage);
    if (worst) {
      row.defect_coverage_lo =
          is_mtj ? worst->mtj_defect_coverage(geometry, at)
                 : worst->bridge_defect_coverage(geometry, at);
      row.defect_coverage_hi =
          is_mtj ? best->mtj_defect_coverage(geometry, at)
                 : best->bridge_defect_coverage(geometry, at);
      // Higher coverage ships fewer defects, so the DPM bounds cross over.
      row.dpm_lo = dpm(report.yield, row.defect_coverage_hi);
      row.dpm_hi = dpm(report.yield, row.defect_coverage_lo);
    } else {
      row.defect_coverage_lo = row.defect_coverage_hi = row.defect_coverage;
      row.dpm_lo = row.dpm_hi = row.dpm_value;
    }
    if (row.label == std::string("1.00 - VLV")) vlv_dpm = row.dpm_value;
    report.rows.push_back(std::move(row));
  }
  for (auto& row : report.rows) {
    if (vlv_dpm > 0.0) {
      row.dpm_ratio = row.dpm_value / vlv_dpm;
    } else {
      // Degenerate normalization (VLV ships zero defects): rows that also
      // ship zero are 1x, everything else is effectively infinite.
      row.dpm_ratio = row.dpm_value == 0.0
                          ? 1.0
                          : std::numeric_limits<double>::infinity();
    }
  }
  return report;
}

}  // namespace memstress::estimator
