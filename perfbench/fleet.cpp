// fleet: server::Coordinator over four fork()ed memstressd workers, each
// computing with one thread per shard (the coordinator default). Phase 1 is
// a distributed characterize of a reduced sram6t grid (the default
// resistance and breakdown-voltage axes at Vnom and the production period,
// 167 points in three default 64-point shards); phase 2 a distributed study
// of 2M devices over the undervolt database in the default 2048-device
// shards. The only workload that exercises dispatch, the shard codec and
// long uncached server requests.
#include <sys/prctl.h>

#include <csignal>
#include <cstdio>

#include "layers.hpp"
#include "server/client.hpp"
#include "server/coordinator.hpp"
#include "server/fleet.hpp"
#include "workloads.hpp"

namespace memstress::perfbench {

estimator::CharacterizeSpec fleet_characterize_spec(bool tiny) {
  estimator::CharacterizeSpec spec = paper_spec();
  spec.vdds = {1.8};
  spec.periods = {25e-9};
  if (tiny) {
    spec.bridge_resistances = {1e3, 90e3};
    spec.open_resistances = {1e6};
    spec.gox_vbds = {1.7};
  }
  return spec;
}

study::StudyConfig fleet_study_config(std::uint64_t seed, bool tiny) {
  study::StudyConfig config;
  config.device_count = tiny ? 20000 : 2000000;
  config.seed = derive_seed(seed, 30);
  return config;
}

namespace {

constexpr int kWorkers = 4;

std::unique_ptr<server::LocalWorkerFleet> fork_workers(int count, bool traced) {
  server::ServerConfig config;  // defaults, not MEMSTRESS_* overrides
  config.workers = 1;
  config.request_timeout_ms = 120000;
  return std::make_unique<server::LocalWorkerFleet>(
      count,
      [traced, config] {
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the benchmark
        metrics::set_enabled(traced);
        return make_service(build_undervolt_db(), config.service_info());
      },
      config);
}

struct FleetRun {
  double run_s = 0.0, characterize_s = 0.0, study_s = 0.0;
  std::string csv;
  study::StudyResult study;
  server::CoordinatorStats characterize_stats, study_stats;
};

FleetRun run_fleet_unit(server::Coordinator& coordinator,
                        const estimator::DetectabilityDb& db,
                        const estimator::CharacterizeSpec& spec,
                        const study::StudyConfig& config) {
  FleetRun run;
  const auto start = Clock::now();
  {
    Tracer::Scope span("coord.characterize");
    run.csv = coordinator.characterize(spec).to_csv();
  }
  run.characterize_s = seconds_since(start);
  run.characterize_stats = coordinator.stats();
  const auto t0 = Clock::now();
  {
    Tracer::Scope span("coord.run_study");
    run.study = coordinator.run_study(config, db);
  }
  run.study_s = seconds_since(t0);
  run.study_stats = coordinator.stats();
  run.run_s = seconds_since(start);
  return run;
}

CoordObs coord_obs(const FleetRun& run) {
  CoordObs obs;
  obs.characterize_s = run.characterize_s;
  obs.study_s = run.study_s;
  for (const server::CoordinatorStats* s : {&run.characterize_stats, &run.study_stats}) {
    obs.total += s->shards_total;
    obs.dispatched += s->shards_dispatched;
    obs.hedged += s->shards_hedged;
    obs.deduped += s->shards_deduped;
    obs.retried += s->shards_retried;
  }
  return obs;
}

server::CoordinatorConfig coordinator_config(const server::LocalWorkerFleet& fleet) {
  server::CoordinatorConfig config;  // default shard sizes and worker threads
  config.workers = fleet.endpoints();
  return config;
}

}  // namespace

CoordObs fallback_coordinator(const Options& options) {
  const auto db = build_undervolt_db();
  const auto fleet = fork_workers(2, true);
  estimator::CharacterizeSpec spec = fleet_characterize_spec(true);
  server::CoordinatorConfig config = coordinator_config(*fleet);
  config.characterize_shard_points = 2;
  study::StudyConfig study_config = fleet_study_config(options.seed, true);
  server::Coordinator coordinator(config);
  begin_traced_pass();
  const FleetRun run = run_fleet_unit(coordinator, *db, spec, study_config);
  end_traced_pass();
  return coord_obs(run);
}

void run_fleet(const Options& options, Result& out) {
  const estimator::CharacterizeSpec spec = fleet_characterize_spec(options.tiny);
  const study::StudyConfig config = fleet_study_config(options.seed, options.tiny);

  // Set-up: fork the workers (each builds its undervolt database and
  // service) and build the coordinator's copy of the database, repeatedly.
  std::unique_ptr<server::LocalWorkerFleet> fleet;
  std::shared_ptr<const estimator::DetectabilityDb> db;
  std::vector<double> setups;
  for (int k = 0; k < (options.tiny ? 1 : 3); ++k) {
    fleet.reset();
    const auto start = Clock::now();
    fleet = fork_workers(kWorkers, false);
    db = build_undervolt_db();
    setups.push_back(seconds_since(start));
  }
  std::vector<pid_t> children;
  for (int i = 0; i < fleet->count(); ++i) children.push_back(fleet->pid(i));

  // A traced run times one untraced unit, as the base of the overhead ratio.
  out.info("calibration_before_ms", calibration_ms());
  server::Coordinator coordinator(coordinator_config(*fleet));
  std::vector<FleetRun> runs;
  std::vector<double> cpu_s;
  const auto started = Clock::now();
  do {
    const CpuMeter cpu(children);
    runs.push_back(run_fleet_unit(coordinator, *db, spec, config));
    cpu_s.push_back(cpu.elapsed_s());
  } while (!options.trace && seconds_since(started) < options.seconds);
  out.info("calibration_after_ms", calibration_ms());
  double rss = 0.0;
  for (const pid_t pid : children) rss = std::max(rss, pid_peak_rss_mb(pid));
  rss += self_peak_rss_mb();

  // Single-node oracles for both phases, outside the timed section.
  const std::string oracle_csv = estimator::characterize(spec).to_csv();
  study::StudyConfig single = config;
  single.threads = kThreads;
  const study::StudyResult oracle = study::run_study(single, *db, make_sampler());

  const FleetRun& first = runs.front();
  std::vector<double> run_s;
  bool identical = true, complete = true;
  long long shards = 0, unresolved = 0;
  for (const FleetRun& r : runs) {
    run_s.push_back(r.run_s);
    identical = identical && r.csv == oracle_csv &&
                r.study.summary() == oracle.summary() &&
                r.study.devices == oracle.devices &&
                r.study.defective == oracle.defective &&
                r.study.escapes == oracle.escapes;
    for (const auto* s : {&r.characterize_stats, &r.study_stats}) {
      complete = complete && s->complete();
      shards += s->shards_total;
      unresolved += static_cast<long long>(s->unresolved.size());
    }
  }
  out.check("fleet.equals_single_node", identical);
  out.check("fleet.all_shards_resolved", complete);
  out.digest("merged_csv_crc", crc_hex(first.csv), false);
  out.digest("study_summary_crc", crc_hex(first.study.summary()));
  out.attempted = shards;
  out.failed = unresolved;
  out.info("run_s_each", join(run_s));

  if (!options.trace) {
    out.metric("setup_s", median(setups), "s");
    out.metric("run_s", median(run_s), "s");
    out.metric("cpu_s", median(cpu_s), "s");
    out.metric("peak_rss_mb", rss, "MiB");
    // Latency of one phase (a distributed characterize or study) and
    // shards completed per second.
    std::vector<double> phase_ms;
    for (const FleetRun& r : runs) {
      phase_ms.push_back(1e3 * r.characterize_s);
      phase_ms.push_back(1e3 * r.study_s);
    }
    out.metric("p50_ms", quantile(phase_ms, 0.5), "ms");
    out.metric("p99_ms", quantile(phase_ms, 0.99), "ms");
    const double shards_per_unit =
        static_cast<double>(shards) / static_cast<double>(runs.size());
    out.metric("max_rate_rps", shards_per_unit / median(run_s), "req/s");
    return;
  }

  // Traced pass on a fresh fleet whose workers record their own counters.
  fleet.reset();
  fleet = fork_workers(kWorkers, true);
  server::Coordinator traced_coordinator(coordinator_config(*fleet));
  begin_traced_pass();
  const FleetRun traced = run_fleet_unit(traced_coordinator, *db, spec, config);
  end_traced_pass();
  out.check("fleet.traced_identical",
            traced.csv == first.csv && traced.study.summary() == oracle.summary());
  TracedPass pass;
  pass.coord = coord_obs(traced);
  pass.overhead_ratio = traced.run_s / first.run_s - 1.0;
  emit_layer_metrics(options, pass, out);
}

}  // namespace memstress::perfbench
