// Distributed coordinator bench: the same characterization grid and
// Monte-Carlo study run single-node, then through the coordinator over 1
// and 4 local fork()ed memstressd workers. Reports wall time and shard
// accounting per fleet shape, and byte-checks every merged result against
// the single-node oracle while doing so — a fast merge that changes the
// bytes is a regression, not a win.
//
// Usage: bench_coordinator [--smoke] [--workers N] [--shard-points N]
//   --smoke  reduced grid/population for the ctest smoke
//
// The last stdout line is machine-readable for trend tracking:
//   BENCH_JSON {"bench":"coordinator", ...}
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "estimator/detectability.hpp"
#include "march/library.hpp"
#include "server/coordinator.hpp"
#include "server/fleet.hpp"
#include "study/study.hpp"
#include "tests/server/server_test_util.hpp"

using namespace memstress;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

estimator::CharacterizeSpec bench_spec(bool smoke) {
  estimator::CharacterizeSpec spec;
  spec.block.rows = 2;
  spec.block.cols = 1;
  spec.test = march::test_11n();
  spec.vdds = smoke ? std::vector<double>{1.0, 1.8}
                    : std::vector<double>{0.8, 1.0, 1.2, 1.8};
  spec.periods = smoke ? std::vector<double>{100e-9}
                       : std::vector<double>{50e-9, 100e-9};
  spec.bridge_resistances = {1e3};
  spec.open_resistances = {1e6};
  spec.gox_vbds = {1.7};
  spec.threads = 1;
  return spec;
}

study::StudyConfig bench_study_config(bool smoke) {
  study::StudyConfig config;
  config.device_count = smoke ? 600 : 4000;
  config.seed = 77;
  config.threads = 1;
  return config;
}

defects::DefectSampler bench_sampler() {
  const auto model = layout::generate_sram_layout(8, 8);
  sram::BlockSpec block;
  block.rows = 2;
  block.cols = 1;
  return defects::DefectSampler(
      defects::aggregate_sites(layout::extract_bridges(model),
                               layout::extract_opens(model)),
      defects::FabModel{}, block);
}

server::ServerConfig worker_config() {
  server::ServerConfig config;
  config.request_timeout_ms = 120000;
  return config;
}

struct FleetRun {
  int workers = 0;
  double characterize_s = 0.0;
  double study_s = 0.0;
  long dispatched = 0;
  long hedged = 0;
  bool identical = false;
};

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  int shard_points = 4;
  std::vector<int> fleet_shapes = {1, 4};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      fleet_shapes = {std::atoi(argv[++i])};
    } else if (std::strcmp(argv[i], "--shard-points") == 0 && i + 1 < argc) {
      shard_points = std::atoi(argv[++i]);
    }
  }

  const estimator::CharacterizeSpec spec = bench_spec(smoke);
  const study::StudyConfig study_config = bench_study_config(smoke);
  const std::size_t grid = estimator::characterize_grid(spec).size();
  std::printf("bench_coordinator: %zu grid points, %d-point shards, %ld-device "
              "study, fleets of", grid, shard_points,
              study_config.device_count);
  for (const int w : fleet_shapes) std::printf(" %d", w);
  std::printf(" worker(s)\n");

  // Single-node oracle (and the latency baseline the fleets compete with).
  auto started = std::chrono::steady_clock::now();
  const estimator::DetectabilityDb baseline_db = estimator::characterize(spec);
  const double single_char_s = seconds_since(started);
  const std::string baseline_csv = baseline_db.to_csv();
  const estimator::DetectabilityDb study_db = server::synthetic_server_db();
  started = std::chrono::steady_clock::now();
  const study::StudyResult baseline_study =
      study::run_study(study_config, study_db, bench_sampler());
  const double single_study_s = seconds_since(started);

  std::vector<FleetRun> runs;
  for (const int workers : fleet_shapes) {
    // Constructed while single-threaded: the coordinator joins its
    // dispatchers before returning, so each iteration starts clean.
    server::LocalWorkerFleet fleet(
        workers, [] { return server::make_test_service(); }, worker_config());
    server::CoordinatorConfig config;
    config.workers = fleet.endpoints();
    config.characterize_shard_points = shard_points;
    config.study_shard_devices = smoke ? 47 : 512;
    server::Coordinator coordinator(config);

    FleetRun run;
    run.workers = workers;
    started = std::chrono::steady_clock::now();
    const estimator::DetectabilityDb db = coordinator.characterize(spec);
    run.characterize_s = seconds_since(started);
    run.dispatched = coordinator.stats().shards_dispatched;
    run.hedged = coordinator.stats().shards_hedged;
    run.identical = db.to_csv() == baseline_csv &&
                    coordinator.stats().complete();

    started = std::chrono::steady_clock::now();
    const study::StudyResult result =
        coordinator.run_study(study_config, study_db);
    run.study_s = seconds_since(started);
    run.dispatched += coordinator.stats().shards_dispatched;
    run.hedged += coordinator.stats().shards_hedged;
    run.identical = run.identical && coordinator.stats().complete() &&
                    result.summary() == baseline_study.summary() &&
                    result.devices == baseline_study.devices;
    runs.push_back(run);
  }

  bool identical = true;
  std::printf("\n  single node characterize / study .......... %.3f / %.3f s\n",
              single_char_s, single_study_s);
  for (const FleetRun& run : runs) {
    identical = identical && run.identical;
    std::printf("  %d worker(s) characterize / study ........... %.3f / %.3f s"
                "  (%ld dispatches, %ld hedged) %s\n",
                run.workers, run.characterize_s, run.study_s, run.dispatched,
                run.hedged, run.identical ? "HOLDS" : "DEVIATES");
  }
  std::printf("  merged bytes identical to single node ..... %s\n\n",
              identical ? "HOLDS" : "DEVIATES");

  std::string fleets_json = "[";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    char entry[256];
    std::snprintf(entry, sizeof entry,
                  "%s{\"workers\":%d,\"characterize_s\":%.4f,"
                  "\"study_s\":%.4f,\"dispatched\":%ld,\"hedged\":%ld,"
                  "\"identical\":%s}",
                  i == 0 ? "" : ",", runs[i].workers, runs[i].characterize_s,
                  runs[i].study_s, runs[i].dispatched, runs[i].hedged,
                  runs[i].identical ? "true" : "false");
    fleets_json += entry;
  }
  fleets_json += "]";
  std::printf("BENCH_JSON {\"bench\":\"coordinator\",\"grid_points\":%zu,"
              "\"shard_points\":%d,\"study_devices\":%ld,"
              "\"single_characterize_s\":%.4f,\"single_study_s\":%.4f,"
              "\"fleets\":%s,\"identical\":%s}\n",
              grid, shard_points, study_config.device_count, single_char_s,
              single_study_s, fleets_json.c_str(),
              identical ? "true" : "false");
  return identical ? 0 : 1;
}
