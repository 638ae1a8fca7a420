// memstress_coord: the distributed pipeline end to end on one machine.
//
// Phase 1 forks a fleet of memstressd workers and characterizes the
// detectability grid through the coordinator — shards dispatched with
// retry, requeue and hedging — then saves the merged database CSV. Phase 2
// forks a fresh fleet whose workers *load that CSV*, and runs the
// Monte-Carlo study distributed, with the db_crc guard proving every
// worker serves the same database. Both merged results are byte-checked
// against single-node runs: worker count, kill schedule and chaos rate
// must never change the output.
//
// Usage: memstress_coord [--workers N] [--kill-every K] [--chaos RATE]
//                        [--devices N] [--out PATH]
//   --workers N     fleet size per phase (default 4)
//   --kill-every K  SIGKILL one live worker after every K shard dispatches
//                   during phase 1 (at most N-1 kills; 0 = never)
//   --chaos RATE    seeded fault injection inside every worker; rejected
//                   shards are retried until the injected verdicts --- keyed
//                   on the global grid index --- land identically
//   --devices N     study population size (default 2000)
//   --out PATH      merged database CSV (default memstress_coord_db.csv)
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "defects/sampler.hpp"
#include "estimator/detectability.hpp"
#include "layout/sram_layout.hpp"
#include "march/library.hpp"
#include "server/coordinator.hpp"
#include "server/fleet.hpp"
#include "server/service.hpp"
#include "study/study.hpp"
#include "util/chaos.hpp"
#include "util/metrics.hpp"

using namespace memstress;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

estimator::CharacterizeSpec demo_spec() {
  estimator::CharacterizeSpec spec;
  spec.block.rows = 2;
  spec.block.cols = 1;
  spec.test = march::test_11n();
  spec.vdds = {1.0, 1.8};
  spec.periods = {100e-9};
  spec.bridge_resistances = {1e3};
  spec.open_resistances = {1e6};
  spec.gox_vbds = {1.7};
  spec.threads = 1;
  return spec;
}

defects::DefectSampler demo_sampler() {
  const auto model = layout::generate_sram_layout(8, 8);
  sram::BlockSpec block;
  block.rows = 2;
  block.cols = 1;
  return defects::DefectSampler(
      defects::aggregate_sites(layout::extract_bridges(model),
                               layout::extract_opens(model)),
      defects::FabModel{}, block);
}

std::shared_ptr<const server::MemstressService> make_worker_service(
    estimator::DetectabilityDb db) {
  return std::make_shared<const server::MemstressService>(
      std::make_shared<const estimator::DetectabilityDb>(std::move(db)),
      estimator::PopulationModel::calibrate(), defects::FabModel{},
      demo_sampler(), server::ServiceInfo{});
}

server::ServerConfig worker_config() {
  server::ServerConfig config;
  config.request_timeout_ms = 120000;
  return config;
}

server::CoordinatorConfig coord_config(const server::LocalWorkerFleet& fleet,
                                       int max_attempts) {
  server::CoordinatorConfig config;
  config.workers = fleet.endpoints();
  config.characterize_shard_points = 3;
  config.study_shard_devices = 256;
  config.max_shard_attempts = max_attempts;
  config.backoff_initial_ms = 2;
  config.backoff_max_ms = 50;
  return config;
}

void print_stats(const server::CoordinatorStats& stats) {
  std::printf("    shards %ld  dispatched %ld  retried %ld  requeued %ld  "
              "hedged %ld  deduped %ld\n",
              stats.shards_total, stats.shards_dispatched,
              stats.shards_retried, stats.shards_requeued, stats.shards_hedged,
              stats.shards_deduped);
  std::printf("    workers quarantined %ld  readmitted %ld  dead %ld  "
              "unresolved shards %zu\n",
              stats.workers_quarantined, stats.workers_readmitted,
              stats.workers_dead, stats.unresolved.size());
}

}  // namespace

int main(int argc, char** argv) {
  int workers = 4;
  int kill_every = 0;
  double chaos_rate = 0.0;
  int devices = 2000;
  std::string out = "memstress_coord_db.csv";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      workers = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--kill-every") == 0 && i + 1 < argc) {
      kill_every = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--chaos") == 0 && i + 1 < argc) {
      chaos_rate = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--devices") == 0 && i + 1 < argc) {
      devices = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  if (workers < 1) workers = 1;
  const std::uint64_t chaos_seed = 11;

  const estimator::CharacterizeSpec spec = demo_spec();
  std::printf("memstress_coord: %d workers, kill-every %d, chaos %.2f\n",
              workers, kill_every, chaos_rate);

  // Single-node oracles. With chaos active the oracle sees the *same*
  // injected verdicts the fleet will: they are keyed on the global grid
  // index, not on the shard layout.
  if (chaos_rate > 0.0) chaos::configure(chaos_rate, chaos_seed);
  const estimator::DetectabilityDb expected_db =
      estimator::characterize(spec);
  chaos::disable();

  // ---- Phase 1: distributed characterize. -----------------------------
  // The fleet is fork()ed while this process is single-threaded; the
  // killer thread below is joined before phase 2 forks again.
  std::printf("\nphase 1: characterize %zu grid points across %d workers\n",
              estimator::characterize_grid(spec).size(), workers);
  metrics::set_enabled(true);
  server::LocalWorkerFleet grid_fleet(
      workers,
      [chaos_rate, chaos_seed] {
        if (chaos_rate > 0.0) chaos::configure(chaos_rate, chaos_seed);
        return make_worker_service(estimator::DetectabilityDb{});
      },
      worker_config());
  server::Coordinator grid_coordinator(
      coord_config(grid_fleet, chaos_rate > 0.0 ? 50 : 5));

  metrics::Counter& dispatched = metrics::counter("coord.shards_dispatched");
  std::atomic<bool> run_done{false};
  std::thread killer;
  if (kill_every > 0 && workers >= 2)
    killer = std::thread([&] {
      // SIGKILL a live worker each time `kill_every` more dispatches have
      // gone out, always leaving at least one survivor.
      long long next = dispatched.value() + kill_every;
      for (int victim = 0; victim + 1 < workers; ++victim) {
        while (dispatched.value() < next && !run_done.load())
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        if (run_done.load()) return;  // too few shards left to kill over
        std::printf("  [killer] SIGKILL worker %d (port %d)\n", victim,
                    grid_fleet.port(victim));
        grid_fleet.kill(victim);
        next = dispatched.value() + kill_every;
      }
    });

  auto started = std::chrono::steady_clock::now();
  const estimator::DetectabilityDb merged =
      grid_coordinator.characterize(spec);
  const double characterize_s = seconds_since(started);
  run_done.store(true);
  if (killer.joinable()) killer.join();
  metrics::set_enabled(false);

  const bool grid_identical = merged.to_csv() == expected_db.to_csv();
  std::printf("  merged %zu entries (+%zu quarantined) in %.3f s — %s\n",
              merged.size(), merged.quarantine().size(), characterize_s,
              grid_identical ? "byte-identical to single node"
                             : "DEVIATES from single node");
  print_stats(grid_coordinator.stats());
  merged.save(out);
  std::printf("  saved %s\n", out.c_str());

  // ---- Phase 2: distributed study over the saved database. ------------
  study::StudyConfig config;
  config.device_count = devices;
  config.seed = 77;
  config.threads = 1;
  const study::StudyResult expected_study =
      study::run_study(config, merged, demo_sampler());

  std::printf("\nphase 2: study %d devices across %d fresh workers loading "
              "%s\n", devices, workers, out.c_str());
  const std::string fingerprint = estimator::spec_fingerprint(spec);
  server::LocalWorkerFleet study_fleet(
      workers,
      [out, fingerprint] {
        // Loaded in the worker child; the fingerprint check plus the
        // coordinator's db_crc guard make "wrong database" a structured
        // rejection instead of wrong numbers.
        return make_worker_service(
            estimator::DetectabilityDb::load(out, fingerprint));
      },
      worker_config());
  server::Coordinator study_coordinator(coord_config(study_fleet, 5));
  started = std::chrono::steady_clock::now();
  const study::StudyResult result = study_coordinator.run_study(config, merged);
  const double study_s = seconds_since(started);

  const bool study_identical =
      result.summary() == expected_study.summary() &&
      result.devices == expected_study.devices;
  std::printf("  %ld devices tallied in %.3f s — %s\n", result.devices, study_s,
              study_identical ? "tallies identical to single node"
                              : "tallies DEVIATE from single node");
  print_stats(study_coordinator.stats());
  std::printf("\n%s\n", result.summary().c_str());

  const bool pass = grid_identical && study_identical &&
                    grid_coordinator.stats().complete() &&
                    study_coordinator.stats().complete();
  std::printf("memstress_coord: %s\n", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
