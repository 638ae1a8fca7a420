// StressEvaluationPipeline: the paper's Figure 2 flow as one object.
//
//   layout generation -> IFA bridge/open extraction -> defect injection ->
//   analogue (march-driven) fault simulation -> detectability database ->
//   fault-coverage / DPM estimator -> Monte-Carlo silicon study.
//
// This is the primary public API of the library: build a pipeline from a
// PipelineConfig, then ask it for the estimator (Table 1), the study
// (Fig. 11), or the raw database. The expensive characterization step runs
// lazily, once, and can be cached to CSV between runs.
#pragma once

#include <memory>
#include <string>

#include "defects/sampler.hpp"
#include "estimator/coverage.hpp"
#include "estimator/detectability.hpp"
#include "layout/critical_area.hpp"
#include "layout/sram_layout.hpp"
#include "march/library.hpp"
#include "study/study.hpp"
#include "util/metrics.hpp"

namespace memstress::core {

struct PipelineConfig {
  /// Transistor-level simulation block (keep it small: the physics of one
  /// representative site per category is what matters; populations scale
  /// analytically).
  sram::BlockSpec block{};

  /// Reference layout extracted for population calibration.
  int layout_rows = 8;
  int layout_cols = 8;

  layout::ExtractionRules extraction{};
  defects::FabModel fab{};
  march::MarchTest test = march::test_11n();

  /// Memory technology the whole pipeline evaluates: Sram6T (analog),
  /// SttMram (MTJ fault models; pair with march::march_hammer() and the MTJ
  /// fab model below) or Undervolt (software fault injection over the SRAM
  /// grid). Copied into `characterization.technology`.
  tech::Technology technology = tech::Technology::Sram6T;

  /// MTJ fab statistics for the SttMram technology (estimator bins, sampler
  /// distribution). Ignored by the other technologies.
  defects::MtjFabModel mtj_fab{};

  /// Characterization grids; `block` and `test` above are copied in.
  estimator::CharacterizeSpec characterization{};

  /// When set, the detectability DB is loaded from this CSV if present and
  /// written to it after a fresh characterization.
  std::string db_cache_path;

  /// Progress callback for the characterization (empty = silent). A full
  /// std::function: callers can capture state, and characterize() serializes
  /// invocations so the callee needs no locking even at high thread counts.
  estimator::ProgressFn progress;
};

class StressEvaluationPipeline {
 public:
  explicit StressEvaluationPipeline(PipelineConfig config);

  /// The reference layout and its extracted site lists (computed eagerly;
  /// they are cheap).
  const layout::LayoutModel& reference_layout() const { return layout_; }
  const std::vector<layout::BridgeSite>& bridge_sites() const { return bridges_; }
  const std::vector<layout::OpenSite>& open_sites() const { return opens_; }

  /// The detectability database (lazily characterized / cache-loaded).
  const estimator::DetectabilityDb& database();

  /// Shared ownership of the same immutable database — the hand-off point
  /// for long-lived concurrent consumers (memstressd workers, estimators):
  /// one characterization, any number of threads, zero copies. Lookups are
  /// thread-safe (detectability.hpp).
  std::shared_ptr<const estimator::DetectabilityDb> share_database();

  /// Estimator over the current database (Table 1 reproduction).
  estimator::FaultCoverageEstimator make_estimator();

  /// Defect sampler matching the extracted site population.
  defects::DefectSampler make_sampler() const;

  /// Run the Monte-Carlo silicon study (Fig. 11 reproduction).
  study::StudyResult run_study(const study::StudyConfig& study_config);

  /// Snapshot of everything observed since the last metrics::reset():
  /// counters, histograms and the span tree. Empty unless metrics are
  /// enabled (metrics::set_enabled(true) or MEMSTRESS_METRICS=1).
  metrics::RunReport run_report() const { return metrics::collect(); }

  const PipelineConfig& config() const { return config_; }

 private:
  PipelineConfig config_;
  layout::LayoutModel layout_;
  std::vector<layout::BridgeSite> bridges_;
  std::vector<layout::OpenSite> opens_;
  std::shared_ptr<const estimator::DetectabilityDb> db_;
};

}  // namespace memstress::core
