// CoordinatorChaos: the distributed determinism contract under fire.
//
// The merged CSV / study tallies must be byte-identical to a single-node
// run at any worker count, with workers SIGKILLed mid-run, with a worker
// dead before the run starts, with chaos injection active in every worker
// — and when retries are exhausted the run must degrade to quarantined
// points instead of wrong bytes. The fleet is real fork()ed server
// processes, so the failure paths exercised are the real socket-level ones
// (ECONNREFUSED, ECONNRESET mid-frame), not mocks.
//
// fork() discipline: every fleet is constructed while this process is
// single-threaded (coordinator dispatcher threads and killer threads are
// joined before each test returns), which keeps the suite TSan-clean.
#include <gtest/gtest.h>

#include <signal.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "estimator/detectability.hpp"
#include "march/library.hpp"
#include "server/coordinator.hpp"
#include "server/fleet.hpp"
#include "server_test_util.hpp"
#include "study/study.hpp"
#include "util/chaos.hpp"
#include "util/metrics.hpp"

namespace memstress::server {
namespace {

estimator::CharacterizeSpec tiny_spec() {
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

/// Single-node oracle, computed once (the grid is tiny but each point is a
/// real transient simulation).
const std::string& baseline_csv() {
  static const std::string csv = estimator::characterize(tiny_spec()).to_csv();
  return csv;
}

/// Worker-side server config: shard requests run real simulations, so the
/// per-request deadline must comfortably exceed a whole-grid shard.
ServerConfig worker_config() {
  ServerConfig config;
  config.request_timeout_ms = 120000;
  return config;
}

CoordinatorConfig coord_config(const LocalWorkerFleet& fleet,
                               int shard_points) {
  CoordinatorConfig config;
  config.workers = fleet.endpoints();
  config.characterize_shard_points = shard_points;
  config.study_shard_devices = 47;
  config.shard_timeout_ms = 120000;
  config.backoff_initial_ms = 2;
  config.backoff_max_ms = 20;
  config.probe_attempts = 2;
  return config;
}

defects::DefectSampler study_sampler() {
  const auto model = layout::generate_sram_layout(8, 8);
  sram::BlockSpec block;
  block.rows = 2;
  block.cols = 1;
  return defects::DefectSampler(
      defects::aggregate_sites(layout::extract_bridges(model),
                               layout::extract_opens(model)),
      defects::FabModel{}, block);
}

study::StudyConfig study_config() {
  study::StudyConfig config;
  config.device_count = 600;
  config.seed = 77;
  config.threads = 1;
  return config;
}

TEST(CoordinatorChaos, CharacterizeByteIdenticalAcrossWorkerCounts) {
  const std::string& baseline = baseline_csv();
  for (const int workers : {1, 2, 4}) {
    LocalWorkerFleet fleet(workers, [] { return make_test_service(); },
                           worker_config());
    Coordinator coordinator(coord_config(fleet, 4));
    const estimator::DetectabilityDb db = coordinator.characterize(tiny_spec());
    EXPECT_EQ(db.to_csv(), baseline)
        << workers << " workers changed the merged bytes";
    EXPECT_TRUE(db.quarantine().empty());
    EXPECT_EQ(db.fingerprint(), estimator::spec_fingerprint(tiny_spec()));
    EXPECT_TRUE(coordinator.stats().complete());
    EXPECT_EQ(coordinator.stats().workers_dead, 0);
  }
}

TEST(CoordinatorChaos, StudyTalliesIdenticalAcrossFleetShapes) {
  const study::StudyConfig config = study_config();
  const estimator::DetectabilityDb db = synthetic_server_db();
  const study::StudyResult baseline =
      study::run_study(config, db, study_sampler());
  for (const int workers : {1, 2, 4}) {
    LocalWorkerFleet fleet(workers, [] { return make_test_service(); },
                           worker_config());
    Coordinator coordinator(coord_config(fleet, 4));
    const study::StudyResult result = coordinator.run_study(config, db);
    EXPECT_EQ(result.summary(), baseline.summary())
        << workers << " workers changed the study tallies";
    EXPECT_EQ(result.devices, baseline.devices);
    EXPECT_EQ(result.venn.total(), baseline.venn.total());
    EXPECT_TRUE(coordinator.stats().complete());
  }
}

TEST(CoordinatorChaos, SigkilledWorkerMidRunStillMergesIdenticalBytes) {
  metrics::set_enabled(true);
  const std::string& baseline = baseline_csv();
  LocalWorkerFleet fleet(2, [] { return make_test_service(); },
                         worker_config());
  Coordinator coordinator(coord_config(fleet, 2));

  metrics::Counter& dispatched = metrics::counter("coord.shards_dispatched");
  const long long before = dispatched.value();
  // SIGKILL worker 0 as soon as both dispatchers have shards in flight —
  // mid-simulation, mid-connection, exactly like a crashed host.
  std::thread killer([&] {
    while (dispatched.value() - before < 2)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    fleet.kill(0);
  });
  const estimator::DetectabilityDb db = coordinator.characterize(tiny_spec());
  killer.join();
  metrics::set_enabled(false);

  EXPECT_EQ(db.to_csv(), baseline) << "mid-run SIGKILL changed the bytes";
  EXPECT_TRUE(coordinator.stats().complete());
  EXPECT_EQ(coordinator.stats().workers_quarantined, 1);
  EXPECT_EQ(coordinator.stats().workers_dead, 1);
}

TEST(CoordinatorChaos, DeadWorkerShardsRequeueOntoSurvivors) {
  const std::string& baseline = baseline_csv();
  LocalWorkerFleet fleet(2, [] { return make_test_service(); },
                         worker_config());
  Coordinator coordinator(coord_config(fleet, 4));
  // Kill before the run: worker 0's dispatcher picks a shard, hits
  // ECONNREFUSED, and must requeue it onto the survivor — deterministically.
  fleet.kill(0);
  const estimator::DetectabilityDb db = coordinator.characterize(tiny_spec());
  EXPECT_EQ(db.to_csv(), baseline);
  EXPECT_TRUE(coordinator.stats().complete());
  EXPECT_GE(coordinator.stats().shards_requeued, 1);
  EXPECT_EQ(coordinator.stats().workers_dead, 1);
}

TEST(CoordinatorChaos, WorkerDyingWithTheLastShardStillCompletes) {
  metrics::set_enabled(true);
  const std::string& baseline = baseline_csv();
  LocalWorkerFleet fleet(2, [] { return make_test_service(); },
                         worker_config());
  // One shard covering the whole grid: with hedging on, the idle second
  // dispatcher duplicates it, so by the time we kill a worker *both* hold
  // the final shard — whichever dies, the run must still complete.
  CoordinatorConfig config = coord_config(fleet, 1 << 20);
  Coordinator coordinator(config);

  metrics::Counter& dispatched = metrics::counter("coord.shards_dispatched");
  const long long before = dispatched.value();
  std::thread killer([&] {
    while (dispatched.value() - before < 2)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    fleet.kill(0);
  });
  const estimator::DetectabilityDb db = coordinator.characterize(tiny_spec());
  killer.join();
  metrics::set_enabled(false);

  EXPECT_EQ(db.to_csv(), baseline);
  EXPECT_TRUE(coordinator.stats().complete());
  EXPECT_EQ(coordinator.stats().workers_dead, 1);
  EXPECT_GE(coordinator.stats().shards_hedged, 1);
}

TEST(CoordinatorChaos, StudyCompletesWithADeadWorker) {
  const study::StudyConfig config = study_config();
  const estimator::DetectabilityDb db = synthetic_server_db();
  const study::StudyResult baseline =
      study::run_study(config, db, study_sampler());
  LocalWorkerFleet fleet(3, [] { return make_test_service(); },
                         worker_config());
  Coordinator coordinator(coord_config(fleet, 4));
  fleet.kill(1);
  // A shard takes the survivors microseconds, so running free they could
  // drain the queue before the dead worker's dispatcher takes a shard.
  // Hold them stopped (their kernels still accept the shard requests) until
  // that dispatcher has taken one, failed and requeued it.
  metrics::set_enabled(true);
  metrics::Counter& requeued = metrics::counter("coord.shards_requeued");
  const long long before = requeued.value();
  const std::vector<pid_t> survivors = {fleet.pid(0), fleet.pid(2)};
  for (const pid_t pid : survivors) ::kill(pid, SIGSTOP);
  std::thread releaser([&] {
    // The deadline only ends a failing run; the assertions below judge it.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (requeued.value() == before &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    for (const pid_t pid : survivors) ::kill(pid, SIGCONT);
  });
  const study::StudyResult result = coordinator.run_study(config, db);
  releaser.join();
  metrics::set_enabled(false);
  EXPECT_EQ(result.summary(), baseline.summary());
  EXPECT_TRUE(coordinator.stats().complete());
  EXPECT_GE(coordinator.stats().shards_requeued, 1);
  EXPECT_EQ(coordinator.stats().workers_dead, 1);
}

TEST(CoordinatorChaos, ChaosInjectionDoesNotChangeTheMergedBytes) {
  // Single-node oracle with the same chaos stream the workers will see:
  // chaos verdicts are keyed on the *global* grid index, so shard layout
  // cannot move them.
  chaos::configure(0.5, 11);
  const estimator::DetectabilityDb expected =
      estimator::characterize(tiny_spec());
  chaos::disable();

  LocalWorkerFleet fleet(2,
                         [] {
                           // Runs in the worker child: chaos active both at
                           // the request boundary (server.handle) and inside
                           // the sweep (characterize.point).
                           chaos::configure(0.5, 11);
                           return make_test_service();
                         },
                         worker_config());
  CoordinatorConfig config = coord_config(fleet, 3);
  config.max_shard_attempts = 30;  // rejected requests re-roll per attempt
  Coordinator coordinator(config);
  const estimator::DetectabilityDb db = coordinator.characterize(tiny_spec());

  EXPECT_EQ(db.to_csv(), expected.to_csv())
      << "chaos injection changed the merged bytes";
  ASSERT_EQ(db.quarantine().size(), expected.quarantine().size());
  for (std::size_t i = 0; i < db.quarantine().size(); ++i)
    EXPECT_EQ(db.quarantine()[i].describe(),
              expected.quarantine()[i].describe());
  EXPECT_TRUE(coordinator.stats().complete());
}

TEST(CoordinatorChaos, ExhaustedRetriesDegradeToUnresolvedQuarantine) {
  LocalWorkerFleet fleet(2,
                         [] {
                           // Every request fails with the structured
                           // "injected" error — shards can never resolve.
                           chaos::configure(1.0, 3);
                           return make_test_service();
                         },
                         worker_config());
  CoordinatorConfig config = coord_config(fleet, 8);
  config.max_shard_attempts = 2;
  Coordinator coordinator(config);
  const estimator::DetectabilityDb db = coordinator.characterize(tiny_spec());

  const std::size_t points = estimator::characterize_grid(tiny_spec()).size();
  EXPECT_EQ(db.size(), 0u);
  ASSERT_EQ(db.quarantine().size(), points);
  for (const estimator::QuarantineEntry& q : db.quarantine())
    EXPECT_EQ(q.reason.rfind("unresolved shard:", 0), 0u) << q.reason;
  EXPECT_FALSE(coordinator.stats().complete());
  ASSERT_FALSE(coordinator.stats().unresolved.empty());
  for (const UnresolvedShard& u : coordinator.stats().unresolved)
    EXPECT_GE(u.attempts, 2) << "shard " << u.shard;

  // The study path degrades the same way: every device unresolved, every
  // tally empty rather than wrong.
  const study::StudyResult result =
      coordinator.run_study(study_config(), synthetic_server_db());
  EXPECT_EQ(result.devices, 0);
  EXPECT_EQ(result.defective, 0);
  EXPECT_FALSE(coordinator.stats().complete());
}

}  // namespace
}  // namespace memstress::server
