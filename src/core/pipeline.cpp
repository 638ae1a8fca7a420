#include "core/pipeline.hpp"

#include <filesystem>

#include "util/error.hpp"
#include "util/log.hpp"
#include "util/trace.hpp"

namespace memstress::core {

StressEvaluationPipeline::StressEvaluationPipeline(PipelineConfig config)
    : config_(std::move(config)),
      layout_(layout::generate_sram_layout(config_.layout_rows,
                                           config_.layout_cols)) {
  bridges_ = layout::extract_bridges(layout_, config_.extraction);
  opens_ = layout::extract_opens(layout_, config_.extraction);
  config_.characterization.block = config_.block;
  config_.characterization.test = config_.test;
  config_.characterization.technology = config_.technology;
}

const estimator::DetectabilityDb& StressEvaluationPipeline::database() {
  return *share_database();
}

std::shared_ptr<const estimator::DetectabilityDb>
StressEvaluationPipeline::share_database() {
  if (db_) return db_;
  trace::Span span("pipeline.database");
  if (!config_.db_cache_path.empty() &&
      std::filesystem::exists(config_.db_cache_path)) {
    // The cache is trusted only if its fingerprint proves it was produced by
    // this exact CharacterizeSpec; a stale or foreign file would otherwise
    // silently feed wrong detectability verdicts to every downstream answer.
    const std::string expected =
        estimator::spec_fingerprint(config_.characterization);
    try {
      db_ = std::make_shared<const estimator::DetectabilityDb>(
          estimator::DetectabilityDb::load(config_.db_cache_path, expected));
      // Counted only after the load (including the fingerprint check)
      // succeeds, so a rejected or unreadable cache never shows up as a
      // cache load in the metrics.
      static metrics::Counter& cache_loads =
          metrics::counter("pipeline.db_cache_loads");
      cache_loads.add(1);
      log_info("pipeline: loaded detectability DB from ",
               config_.db_cache_path, " (fingerprint ", expected, ")");
      return db_;
    } catch (const Error& e) {
      static metrics::Counter& cache_rejected =
          metrics::counter("pipeline.db_cache_rejected");
      cache_rejected.add(1);
      log_warn("pipeline: rejecting detectability cache ",
               config_.db_cache_path, ": ", e.what(), "; re-characterizing");
    }
  }
  log_info("pipeline: characterizing detectability DB (analog simulation)");
  db_ = std::make_shared<const estimator::DetectabilityDb>(
      estimator::characterize(config_.characterization, config_.progress));
  if (!config_.db_cache_path.empty()) {
    if (db_->quarantine().empty()) {
      db_->save(config_.db_cache_path);
    } else {
      // A cache file only ever represents a fully characterized database;
      // persisting one with unknown verdicts would silently bake the gaps
      // into every later run that loads it.
      log_warn("pipeline: not caching detectability DB to ",
               config_.db_cache_path, ": ", db_->quarantine().size(),
               " quarantined grid points (see RunReport robust.* notes)");
    }
  }
  return db_;
}

estimator::FaultCoverageEstimator StressEvaluationPipeline::make_estimator() {
  // The shared-database constructor: every estimator made here references
  // the pipeline's one immutable DB instead of copying its entry list.
  return estimator::FaultCoverageEstimator(
      share_database(),
      estimator::PopulationModel::calibrate(config_.layout_rows,
                                            config_.layout_cols),
      config_.fab, config_.mtj_fab);
}

defects::DefectSampler StressEvaluationPipeline::make_sampler() const {
  // The STT-MRAM technology samples defective junctions from the MTJ fab
  // model; the SRAM-grid technologies (analog and undervolt) share the IFA
  // site population.
  if (config_.technology == tech::Technology::SttMram)
    return defects::DefectSampler(config_.mtj_fab, config_.block);
  return defects::DefectSampler(defects::aggregate_sites(bridges_, opens_),
                                config_.fab, config_.block);
}

study::StudyResult StressEvaluationPipeline::run_study(
    const study::StudyConfig& study_config) {
  const estimator::DetectabilityDb& db = database();
  trace::Span span("pipeline.study");
  return study::run_study(study_config, db, make_sampler());
}

}  // namespace memstress::core
