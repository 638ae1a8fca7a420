// paper_flow: the Figure-2 flow as examples/full_evaluation runs it on
// sram6t, from a cold start: characterize (batched solver, pinned threads,
// no DB cache, no checkpoints), Table 1, the 11k-device study, the schedule
// trade-off and the optimizer. The analog kernel under the characterize
// fan-out does nearly all of the work.
//
// The grid keeps the default resistance and breakdown-voltage axes (so every
// batched cell carries its full lanes) at two of the default stress
// conditions, VLV and Vnom voltage at the production period: the whole
// 12-condition grid takes half a minute, too long to repeat within a run.
#include <cstdio>

#include "core/pipeline.hpp"
#include "estimator/schedule.hpp"
#include "layers.hpp"
#include "workloads.hpp"

namespace memstress::perfbench {

namespace {

constexpr long kStudyDevices = 11000;
constexpr long kTinyStudyDevices = 1000;
/// Set-ups timed before the first flow and between flows.
constexpr int kSetupBatch = 51;

estimator::CharacterizeSpec flow_spec(bool tiny) {
  estimator::CharacterizeSpec spec = paper_spec();
  spec.vdds = {1.0, 1.8};
  spec.periods = {25e-9};
  if (tiny) {
    spec.vdds = {1.8};
    spec.bridge_resistances = {1e3, 90e3};
    spec.open_resistances = {1e6};
    spec.gox_vbds = {1.7};
  }
  return spec;
}

core::PipelineConfig flow_config(bool tiny, std::vector<double>* commit_s,
                                 const Clock::time_point* epoch) {
  core::PipelineConfig config;
  config.characterization = flow_spec(tiny);
  config.block = config.characterization.block;
  config.test = config.characterization.test;
  config.db_cache_path.clear();  // always characterize, never load a cache
  if (commit_s && epoch)
    config.progress = [commit_s, epoch](const std::string&) {
      commit_s->push_back(seconds_since(*epoch));  // serialized by characterize
    };
  return config;
}

struct FlowRun {
  double run_s = 0.0;
  double cpu_s = 0.0;  ///< of the benchmark process, all threads
  double characterize_s = 0.0;
  std::vector<double> commit_s;  ///< per grid point: characterize start to verdict
  std::size_t points = 0;
  std::size_t quarantined = 0;
  std::string db_csv, table1_csv, study_summary, schedule;
  study::StudyResult study;
  double table1_ms = 0.0, schedule_ms = 0.0, study_s = 0.0;
};

/// One flow from a fresh pipeline: nothing is carried over between flows.
FlowRun run_flow(const Options& options) {
  FlowRun run;
  Clock::time_point epoch = Clock::now();
  core::StressEvaluationPipeline pipeline(
      flow_config(options.tiny, &run.commit_s, &epoch));
  const auto start = Clock::now();
  {
    Tracer::Scope span("estimator.characterize");
    epoch = Clock::now();
    pipeline.database();
  }
  run.characterize_s = seconds_since(epoch);
  const estimator::DetectabilityDb& db = pipeline.database();

  estimator::FaultCoverageEstimator est = pipeline.make_estimator();
  auto t0 = Clock::now();
  estimator::EstimatorReport table1;
  {
    Tracer::Scope span("estimator.table1");
    table1 = est.table1(estimator::MemoryGeometry{512, 64, 8, 1});
  }
  run.table1_ms = 1e3 * seconds_since(t0);

  study::StudyConfig study_config;
  study_config.device_count = options.tiny ? kTinyStudyDevices : kStudyDevices;
  study_config.seed = derive_seed(options.seed, 1);
  study_config.threads = kThreads;
  t0 = Clock::now();
  {
    Tracer::Scope span("study.run_study");
    run.study = pipeline.run_study(study_config);
  }
  run.study_s = seconds_since(t0);

  estimator::ScheduleSpec spec;
  spec.monte_carlo_defects = options.tiny ? 400 : 4000;
  spec.yield = 0.91;
  spec.seed = derive_seed(options.seed, 2);
  const defects::DefectSampler sampler = pipeline.make_sampler();
  t0 = Clock::now();
  estimator::Schedule best;
  {
    Tracer::Scope span("estimator.schedule");
    const auto curve = estimator::schedule_tradeoff(estimator::standard_legs(),
                                                    db, sampler, spec);
    double best_dpm = 1e18;
    for (const auto& s : curve) best_dpm = std::min(best_dpm, s.dpm);
    spec.target_dpm = best_dpm * 1.05 + 1.0;
    best = estimator::optimize_schedule(estimator::standard_legs(), db,
                                        sampler, spec);
  }
  run.schedule_ms = 1e3 * seconds_since(t0);
  run.run_s = seconds_since(start);

  run.points = db.size() + db.quarantine().size();
  run.quarantined = db.quarantine().size();
  run.db_csv = db.to_csv();
  run.table1_csv = table1.to_csv();
  run.study_summary = run.study.summary();
  run.schedule = best.describe();
  return run;
}

bool same_outputs(const FlowRun& a, const FlowRun& b) {
  return a.db_csv == b.db_csv && a.table1_csv == b.table1_csv &&
         a.study_summary == b.study_summary && a.schedule == b.schedule;
}

}  // namespace

void run_paper_flow(const Options& options, Result& out) {
  // Set-up: the pipeline's eager layout generation and IFA extraction plus
  // the sampler. It takes under a millisecond, so it is repeated, in batches
  // before the first flow and between flows: a shared host's speed drifts
  // over a run, and the median of batches spread over it drifts no more
  // than the flows do. Each flow then starts from a new pipeline.
  std::vector<double> setups;
  const auto set_up = [&] {
    for (int k = 0; k < kSetupBatch; ++k) {
      const auto start = Clock::now();
      core::StressEvaluationPipeline pipeline(flow_config(options.tiny, nullptr, nullptr));
      pipeline.make_sampler();
      setups.push_back(seconds_since(start));
    }
  };
  set_up();

  // A traced run times one untraced flow, as the base of the overhead ratio.
  out.info("calibration_before_ms", calibration_ms());
  std::vector<FlowRun> runs;
  const auto started = Clock::now();
  do {
    if (!runs.empty()) set_up();
    const double cpu_start = self_cpu_s();
    runs.push_back(run_flow(options));
    runs.back().cpu_s = self_cpu_s() - cpu_start;
  } while (!options.trace && seconds_since(started) < options.seconds);
  out.info("calibration_after_ms", calibration_ms());

  const FlowRun& first = runs.front();
  std::vector<double> run_s, cpu_s, rate, p50_ms, p99_ms;
  bool repeatable = true;
  for (const FlowRun& r : runs) {
    run_s.push_back(r.run_s);
    cpu_s.push_back(r.cpu_s);
    rate.push_back(static_cast<double>(r.points) / r.characterize_s);
    p50_ms.push_back(1e3 * quantile(r.commit_s, 0.5));
    p99_ms.push_back(1e3 * quantile(r.commit_s, 0.99));
    repeatable = repeatable && same_outputs(r, first);
    out.attempted += static_cast<long long>(r.points);
    out.failed += static_cast<long long>(r.quarantined);
  }
  const long devices = options.tiny ? kTinyStudyDevices : kStudyDevices;
  out.check("paper_flow.repeats_identical", repeatable);
  out.check("paper_flow.grid_complete",
            first.points == estimator::characterize_grid(flow_spec(options.tiny)).size());
  out.check("paper_flow.no_quarantine", first.quarantined == 0);
  out.check("paper_flow.study_consistent",
            first.study.devices == devices &&
                first.study.escapes <= first.study.defective &&
                first.study.venn.total() <= first.study.devices);
  out.digest("db_csv_crc", crc_hex(first.db_csv), false);
  out.digest("table1_csv_crc", crc_hex(first.table1_csv), false);
  out.digest("study_summary_crc", crc_hex(first.study_summary));
  out.digest("schedule", first.schedule);
  out.info("run_s_each", join(run_s));
  out.info("paper_flow.grid_points", static_cast<double>(first.points));

  if (!options.trace) {
    // Medians over the flows.
    out.metric("setup_s", median(setups), "s");
    out.metric("run_s", median(run_s), "s");
    out.metric("cpu_s", median(cpu_s), "s");
    out.metric("peak_rss_mb", self_peak_rss_mb(), "MiB");
    // Time from the start of characterize until a grid point's verdict is
    // in: half of the grid (p50) and all but 1% of it (p99), per flow.
    out.metric("p50_ms", median(p50_ms), "ms");
    out.metric("p99_ms", median(p99_ms), "ms");
    out.metric("max_rate_rps", median(rate), "req/s");
    return;
  }

  begin_traced_pass();
  const FlowRun traced = run_flow(options);
  const metrics::RunReport report = end_traced_pass();
  out.check("paper_flow.traced_identical", same_outputs(traced, first));
  TracedPass pass;
  pass.characterize = characterize_obs(report, traced.characterize_s, kThreads);
  pass.table1_ms = {traced.table1_ms};
  pass.schedule_ms = {traced.schedule_ms};
  pass.study = study_obs(report, traced.study_s, traced.study.devices);
  pass.overhead_ratio = traced.run_s / first.run_s - 1.0;
  emit_layer_metrics(options, pass, out);
}

}  // namespace memstress::perfbench
