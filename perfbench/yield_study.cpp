// yield_study: Monte-Carlo studies at production volume over the default-
// grid undervolt database (closed-form physics, so no analog simulation
// runs). Study, sampler, DB lookups and the fine-grained parallel_for fan-out
// do nearly all of the work.
#include <cstdio>
#include <sstream>

#include "estimator/schedule.hpp"
#include "layers.hpp"
#include "workloads.hpp"

namespace memstress::perfbench {

namespace {

/// Defect densities of the sweep, as multiples of the fab model's default.
constexpr double kDensityScale[] = {0.5, 1.0, 2.0, 4.0};
/// Devices per study: a sweep is 2.5M devices, a run about 10^7.
constexpr long kDevices = 625000;
constexpr long kTinyDevices = 20000;
/// Set-ups timed before the first sweep and between sweeps.
constexpr int kSetupBatch = 5;

struct Setup {
  std::shared_ptr<const estimator::DetectabilityDb> db;
  std::vector<defects::DefectSampler> samplers;  ///< one per density
};

Setup make_setup() {
  Setup setup;
  setup.db = build_undervolt_db();
  const defects::DefectSampler base = make_sampler();
  for (const double scale : kDensityScale) {
    defects::FabModel fab;
    fab.defect_density_per_um2 *= scale;
    setup.samplers.emplace_back(base.population(), fab, standard_block());
  }
  return setup;
}

std::string describe(const study::StudyResult& r) {
  std::ostringstream out;
  out << r.devices << ' ' << r.defective << ' ' << r.standard_fails << ' '
      << r.escapes << ' ' << r.escapes_standard_only << ' ' << r.escapes_with_vlv
      << ' ' << r.escapes_with_vmax << ' ' << r.escapes_with_atspeed << '\n'
      << r.summary();
  return out.str();
}

struct Sweep {
  double run_s = 0.0;
  std::vector<double> study_s;
  std::vector<study::StudyResult> results;
  double schedule_s = 0.0;
  std::string curve;  ///< every schedule of the trade-off curve
  long long devices = 0;
};

Sweep run_sweep(const Options& options, const Setup& setup) {
  Sweep sweep;
  const auto start = Clock::now();
  for (std::size_t k = 0; k < setup.samplers.size(); ++k) {
    study::StudyConfig config;
    config.device_count = options.tiny ? kTinyDevices : kDevices;
    config.seed = derive_seed(options.seed, 10 + k);
    config.threads = kThreads;
    const auto t0 = Clock::now();
    {
      Tracer::Scope span("study.run_study");
      sweep.results.push_back(study::run_study(config, *setup.db, setup.samplers[k]));
    }
    sweep.study_s.push_back(seconds_since(t0));
    sweep.devices += config.device_count;
  }
  estimator::ScheduleSpec spec;
  spec.monte_carlo_defects = options.tiny ? 500 : 10000;
  spec.seed = derive_seed(options.seed, 20);
  const auto t0 = Clock::now();
  {
    Tracer::Scope span("estimator.schedule");
    for (const auto& s : estimator::schedule_tradeoff(
             estimator::standard_legs(), *setup.db, setup.samplers[1], spec))
      sweep.curve += s.describe() + "\n";
  }
  sweep.schedule_s = seconds_since(t0);
  sweep.run_s = seconds_since(start);
  return sweep;
}

}  // namespace

void run_yield_study(const Options& options, Result& out) {
  // Set-up: the undervolt database and the four samplers, timed in batches
  // before the first sweep and between sweeps, so that the median follows a
  // shared host's drift over the run no more than the sweeps do. The sweeps
  // use the latest one.
  std::vector<double> setups;
  Setup setup;
  const auto set_up = [&] {
    for (int k = 0; k < kSetupBatch; ++k) {
      const auto start = Clock::now();
      setup = make_setup();
      setups.push_back(seconds_since(start));
    }
  };
  set_up();

  // A traced run times one untraced sweep, as the base of the overhead ratio.
  out.info("calibration_before_ms", calibration_ms());
  std::vector<Sweep> sweeps;
  std::vector<double> cpu_s;
  const auto started = Clock::now();
  do {
    if (!sweeps.empty()) set_up();
    const double cpu_start = self_cpu_s();
    sweeps.push_back(run_sweep(options, setup));
    cpu_s.push_back(self_cpu_s() - cpu_start);
  } while (!options.trace && seconds_since(started) < options.seconds);
  out.info("calibration_after_ms", calibration_ms());

  // Every count of a study is the same at any thread count; recompute the
  // first density serially as the check that needs no stored reference.
  study::StudyConfig serial;
  serial.device_count = options.tiny ? kTinyDevices : kDevices;
  serial.seed = derive_seed(options.seed, 10);
  serial.threads = 1;
  const std::string serial_result =
      describe(study::run_study(serial, *setup.db, setup.samplers[0]));

  const Sweep& first = sweeps.front();
  std::vector<double> run_s, p50_ms, p99_ms;
  bool repeatable = true, consistent = true;
  long long studies = 0;
  for (const Sweep& s : sweeps) {
    run_s.push_back(s.run_s);
    p50_ms.push_back(1e3 * quantile(s.study_s, 0.5));
    p99_ms.push_back(1e3 * quantile(s.study_s, 0.99));
    for (std::size_t k = 0; k < s.results.size(); ++k) {
      const study::StudyResult& r = s.results[k];
      repeatable = repeatable && describe(r) == describe(first.results[k]);
      consistent = consistent && r.devices == (options.tiny ? kTinyDevices : kDevices) &&
                   r.defective <= r.devices && r.escapes <= r.defective &&
                   r.standard_fails <= r.defective &&
                   r.venn.total() <= r.devices;
    }
    repeatable = repeatable && s.curve == first.curve;
    studies += static_cast<long long>(s.results.size());
  }
  // Each density doubles the expected defects per device, so with millions
  // of devices the defective count must rise along the sweep.
  bool monotone = true;
  for (std::size_t k = 1; k < first.results.size(); ++k)
    monotone = monotone && first.results[k].defective >= first.results[k - 1].defective;
  out.check("yield_study.repeats_identical", repeatable);
  out.check("yield_study.serial_identical", serial_result == describe(first.results[0]));
  out.check("yield_study.results_consistent", consistent);
  out.check("yield_study.defective_grows_with_density", monotone);
  for (std::size_t k = 0; k < first.results.size(); ++k)
    out.digest("study_" + std::to_string(k) + "_crc", crc_hex(describe(first.results[k])));
  out.digest("schedule_curve_crc", crc_hex(first.curve));
  out.attempted = studies;
  out.info("run_s_each", join(run_s));
  out.info("yield_study.devices_per_sweep", static_cast<double>(first.devices));

  if (!options.trace) {
    // Medians over the sweeps.
    out.metric("setup_s", median(setups), "s");
    out.metric("run_s", median(run_s), "s");
    out.metric("cpu_s", median(cpu_s), "s");
    out.metric("peak_rss_mb", self_peak_rss_mb(), "MiB");
    // Latency of one study (one density) within a sweep, median over the
    // sweeps, and studies completed per second.
    out.metric("p50_ms", median(p50_ms), "ms");
    out.metric("p99_ms", median(p99_ms), "ms");
    out.metric("max_rate_rps",
               static_cast<double>(first.results.size()) / median(run_s), "req/s");
    return;
  }

  begin_traced_pass();
  const Sweep traced = run_sweep(options, setup);
  const metrics::RunReport report = end_traced_pass();
  bool traced_identical = traced.curve == first.curve;
  for (std::size_t k = 0; k < traced.results.size(); ++k)
    traced_identical = traced_identical &&
                       describe(traced.results[k]) == describe(first.results[k]);
  out.check("yield_study.traced_identical", traced_identical);
  TracedPass pass;
  double study_wall = 0.0;
  for (const double t : traced.study_s) study_wall += t;
  pass.study = study_obs(report, study_wall, traced.devices);
  pass.schedule_ms.push_back(1e3 * traced.schedule_s);
  pass.overhead_ratio = traced.run_s / first.run_s - 1.0;
  emit_layer_metrics(options, pass, out);
}

}  // namespace memstress::perfbench
