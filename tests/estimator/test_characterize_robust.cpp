// Fault-tolerant characterization: injected solver/chaos failures must be
// retried and then quarantined instead of aborting the sweep; checkpointed
// runs must resume to a byte-identical CSV after a crash; corrupt
// checkpoints must be rejected with a warning and a clean restart.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "analog/batch.hpp"
#include "estimator/coverage.hpp"
#include "estimator/detectability.hpp"
#include "march/library.hpp"
#include "util/chaos.hpp"
#include "util/checkpoint.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"

namespace memstress::estimator {
namespace {

namespace fs = std::filesystem;

CharacterizeSpec tiny_spec() {
  CharacterizeSpec spec;
  spec.block.rows = 2;
  spec.block.cols = 1;
  spec.test = march::test_11n();
  spec.vdds = {1.0, 1.8};
  spec.periods = {100e-9};
  spec.bridge_resistances = {1e3};
  spec.open_resistances = {1e6};
  spec.gox_vbds = {1.7};
  return spec;
}

class ChaosGuard {
 public:
  ~ChaosGuard() { chaos::disable(); }
};

class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag) {
    dir_ = fs::temp_directory_path() /
           ("memstress_robust_" + tag + "_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

 private:
  fs::path dir_;
};

/// The clean reference CSV, characterized once per process.
const std::string& baseline_csv() {
  static const std::string csv = [] {
    chaos::disable();
    return characterize(tiny_spec()).to_csv();
  }();
  return csv;
}

TEST(CharacterizeRobust, ChaosFailuresQuarantinedNotFatal) {
  ChaosGuard guard;
  const std::size_t total = [] {
    chaos::disable();
    return characterize(tiny_spec()).size();
  }();

  chaos::configure(0.8, 7);
  const DetectabilityDb db = characterize(tiny_spec());
  chaos::disable();

  // Every grid point is accounted: characterized or quarantined, no drops.
  EXPECT_EQ(db.size() + db.quarantine().size(), total);
  EXPECT_FALSE(db.quarantine().empty());
  EXPECT_GT(db.size(), 0u);
  for (const auto& q : db.quarantine()) {
    EXPECT_FALSE(q.defect_tag.empty());
    EXPECT_NE(q.reason.find("chaos"), std::string::npos);
    EXPECT_EQ(q.attempts, tiny_spec().max_attempts);
    const std::string line = q.describe();
    EXPECT_NE(line.find(q.defect_tag), std::string::npos);
    EXPECT_NE(line.find("attempts"), std::string::npos);
  }
}

TEST(CharacterizeRobust, RetriesFireAndChaosOffIsFree) {
  ChaosGuard guard;
  metrics::set_enabled(true);

  // A mid rate: some points recover on a retry (the injection stream
  // re-rolls per attempt), which is exactly what robust.retries counts.
  metrics::reset();
  chaos::configure(0.5, 11);
  const DetectabilityDb chaotic = characterize(tiny_spec());
  chaos::disable();
  long long retries = 0;
  for (const auto& c : metrics::collect().counters)
    if (c.name == "robust.retries") retries = c.value;
  EXPECT_GT(retries, 0);

  // With chaos back off the clean path is bit-for-bit what it always was.
  metrics::reset();
  const DetectabilityDb clean = characterize(tiny_spec());
  EXPECT_EQ(clean.to_csv(), baseline_csv());
  EXPECT_TRUE(clean.quarantine().empty());
  for (const auto& c : metrics::collect().counters) {
    if (c.name == "robust.retries" || c.name == "robust.quarantined_points") {
      EXPECT_EQ(c.value, 0) << c.name;
    }
  }
  metrics::reset();
  metrics::set_enabled(false);
}

TEST(CharacterizeRobust, SolverFailureQuarantinesWithItsReason) {
  // A 1 nOhm cell true-false bridge at Vmax, at speed, 16 steps per cycle:
  // the exact path's Newton iteration cannot converge at t = 0. That real
  // SolverError (no chaos injection) must reach the quarantine record as
  // "<failure>: <what>". Grid point 0 alone keeps this to a few seconds.
  CharacterizeSpec spec = tiny_spec();
  spec.test = march::mats_plus();
  spec.vdds = {1.95};
  spec.periods = {15e-9};
  spec.bridge_resistances = {1e-9};
  spec.ate.steps_per_cycle = 16;
  spec.solver = analog::SolverMode::Exact;
  spec.max_attempts = 1;
  const std::vector<PointVerdict> verdicts = characterize_range(spec, 0, 1);
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_TRUE(verdicts[0].quarantined);
  EXPECT_EQ(verdicts[0].attempts, 1);
  EXPECT_EQ(verdicts[0].reason.rfind("newton-non-convergence: Simulator: ", 0),
            0u)
      << verdicts[0].reason;
}

TEST(CharacterizeRobust, QuarantineDeterministicAcrossThreadCounts) {
  ChaosGuard guard;
  chaos::configure(0.8, 7);
  CharacterizeSpec spec = tiny_spec();
  spec.threads = 1;
  const DetectabilityDb serial = characterize(spec);
  spec.threads = 4;
  const DetectabilityDb parallel = characterize(spec);
  chaos::disable();

  EXPECT_EQ(serial.to_csv(), parallel.to_csv());
  ASSERT_EQ(serial.quarantine().size(), parallel.quarantine().size());
  for (std::size_t i = 0; i < serial.quarantine().size(); ++i)
    EXPECT_EQ(serial.quarantine()[i].describe(),
              parallel.quarantine()[i].describe());
}

TEST(CharacterizeRobust, CompletedRunRemovesItsCheckpoint) {
  ScratchDir scratch("complete");
  CharacterizeSpec spec = tiny_spec();
  spec.checkpoint_path = scratch.path("grid.ckpt");
  spec.checkpoint_interval = 2;
  const DetectabilityDb db = characterize(spec);
  EXPECT_EQ(db.to_csv(), baseline_csv());
  EXPECT_FALSE(fs::exists(spec.checkpoint_path));
}

TEST(CharacterizeRobust, CorruptCheckpointWarnsAndRestartsScratch) {
  ScratchDir scratch("corrupt");
  CharacterizeSpec spec = tiny_spec();
  spec.checkpoint_path = scratch.path("grid.ckpt");
  {
    std::ofstream out(spec.checkpoint_path, std::ios::binary);
    out << "garbage that is definitely not a checkpoint\n";
  }
  std::vector<std::string> warnings;
  set_log_sink([&warnings](LogLevel level, const std::string& message) {
    if (level == LogLevel::Warn) warnings.push_back(message);
  });
  const DetectabilityDb db = characterize(spec);
  set_log_sink({});
  EXPECT_EQ(db.to_csv(), baseline_csv());
  ASSERT_FALSE(warnings.empty());
  EXPECT_NE(warnings[0].find("restarting from scratch"), std::string::npos);
}

TEST(CharacterizeRobust, ForeignFingerprintCheckpointRejected) {
  ScratchDir scratch("foreign");
  CharacterizeSpec spec = tiny_spec();
  spec.checkpoint_path = scratch.path("grid.ckpt");
  // A structurally valid checkpoint for a DIFFERENT grid: every point
  // "done", wrong fingerprint. Resuming from it would silently return wrong
  // entries; the header check must reject it.
  checkpoint::save(spec.checkpoint_path,
                   "characterize 1 00000000 3\n0 1\n1 0\n2 1\n");
  std::vector<std::string> warnings;
  set_log_sink([&warnings](LogLevel level, const std::string& message) {
    if (level == LogLevel::Warn) warnings.push_back(message);
  });
  const DetectabilityDb db = characterize(spec);
  set_log_sink({});
  EXPECT_EQ(db.to_csv(), baseline_csv());
  ASSERT_FALSE(warnings.empty());
  EXPECT_NE(warnings[0].find("does not match"), std::string::npos);
}

TEST(CharacterizeRobustDeath, CrashedRunResumesByteIdentical) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  // Fixed (pid-free) path: the death-test child is a separate process, and
  // the parent must find the checkpoint the crashed child left behind.
  CharacterizeSpec spec = tiny_spec();
  spec.checkpoint_path =
      (fs::temp_directory_path() / "memstress_robust_resume_grid.ckpt")
          .string();
  spec.checkpoint_interval = 2;
  fs::remove(spec.checkpoint_path);

  // Child: dies (simulated power cut) right after the second snapshot
  // lands. The crash config is parsed lazily at the first crash_point call,
  // which happens inside the characterize below — after the setenv.
  EXPECT_EXIT(
      {
        ::setenv("MEMSTRESS_CHAOS_CRASH", "characterize.checkpoint:2", 1);
        CharacterizeSpec child_spec = spec;
        child_spec.threads = 2;
        characterize(child_spec);
        std::_Exit(0);  // not reached: the run must die at the crash point
      },
      testing::ExitedWithCode(chaos::kCrashExitCode), "simulated crash");
  ASSERT_TRUE(fs::exists(spec.checkpoint_path));
  std::string snapshot;
  {
    std::ifstream in(spec.checkpoint_path, std::ios::binary);
    snapshot.assign(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
  }

  // Resume at one thread, then restore the crash snapshot and resume at
  // eight: the acceptance bar is a byte-identical CSV either way.
  metrics::set_enabled(true);
  metrics::reset();
  spec.threads = 1;
  const DetectabilityDb resumed_serial = characterize(spec);
  long long resumed = 0;
  for (const auto& c : metrics::collect().counters)
    if (c.name == "robust.checkpoints_resumed") resumed = c.value;
  metrics::reset();
  metrics::set_enabled(false);
  EXPECT_EQ(resumed, 1);
  EXPECT_EQ(resumed_serial.to_csv(), baseline_csv());
  EXPECT_FALSE(fs::exists(spec.checkpoint_path));  // consumed on success

  {
    std::ofstream out(spec.checkpoint_path, std::ios::binary);
    out << snapshot;
  }
  spec.threads = 8;
  const DetectabilityDb resumed_parallel = characterize(spec);
  EXPECT_EQ(resumed_parallel.to_csv(), baseline_csv());
  EXPECT_FALSE(fs::exists(spec.checkpoint_path));
  fs::remove(spec.checkpoint_path);
}

TEST(CharacterizeRobust, Table1BoundsBracketPointEstimate) {
  ChaosGuard guard;
  chaos::disable();
  const DetectabilityDb clean = characterize(tiny_spec());
  const PopulationModel population = PopulationModel::calibrate();
  const defects::FabModel fab;

  // Empty quarantine: the bounds collapse onto the point values.
  {
    const FaultCoverageEstimator est(clean, population, fab);
    const EstimatorReport report = est.table1(MemoryGeometry{});
    EXPECT_EQ(report.quarantined, 0u);
    for (const auto& row : report.rows) {
      EXPECT_EQ(row.defect_coverage_lo, row.defect_coverage);
      EXPECT_EQ(row.defect_coverage_hi, row.defect_coverage);
      EXPECT_EQ(row.dpm_lo, row.dpm_value);
      EXPECT_EQ(row.dpm_hi, row.dpm_value);
    }
  }

  // Quarantine a bridge point at a resistance the grid does not cover: the
  // best/worst assumptions then disagree on nearby lookups and the bounds
  // open up around the point estimate.
  std::vector<QuarantineEntry> unknowns;
  for (const double vdd : {1.0, 1.65, 1.8, 1.95}) {
    QuarantineEntry q;
    q.defect_tag = "bridge[test-quarantined]";
    q.kind = defects::DefectKind::Bridge;
    q.category = clean.entries().front().category;
    q.resistance = 50e3;
    q.vdd = vdd;
    q.period = vdd < 1.2 ? 100e-9 : 25e-9;
    q.reason = "newton-non-convergence: injected";
    q.attempts = 3;
    unknowns.push_back(q);
  }
  const DetectabilityDb with_unknowns(clean.entries(), std::move(unknowns),
                                      clean.fingerprint(), clean.technology());
  const FaultCoverageEstimator est(with_unknowns, population, fab);
  const EstimatorReport report = est.table1(MemoryGeometry{});
  EXPECT_EQ(report.quarantined, 4u);
  bool some_row_widened = false;
  for (const auto& row : report.rows) {
    EXPECT_LE(row.defect_coverage_lo, row.defect_coverage);
    EXPECT_GE(row.defect_coverage_hi, row.defect_coverage);
    EXPECT_LE(row.dpm_lo, row.dpm_value);
    EXPECT_GE(row.dpm_hi, row.dpm_value);
    if (row.defect_coverage_hi > row.defect_coverage_lo) some_row_widened = true;
  }
  EXPECT_TRUE(some_row_widened);
}

TEST(CharacterizeRobust, WithQuarantineAssumedMaterializesEntries) {
  DbEntry e;
  e.kind = defects::DefectKind::Bridge;
  e.category = 0;
  e.resistance = 1e3;
  e.vdd = 1.8;
  e.period = 25e-9;
  e.detected = true;
  QuarantineEntry q;
  q.kind = defects::DefectKind::Bridge;
  q.category = 0;
  q.resistance = 9e3;
  q.vdd = 1.0;
  q.period = 100e-9;
  const DetectabilityDb db({e}, {q});

  for (const bool assumed : {false, true}) {
    const DetectabilityDb resolved = db.with_quarantine_assumed(assumed);
    ASSERT_EQ(resolved.size(), 2u);
    EXPECT_TRUE(resolved.quarantine().empty());
    EXPECT_EQ(resolved.entries().back().detected, assumed);
    EXPECT_EQ(resolved.entries().back().resistance, 9e3);
  }
  // The source database is untouched.
  EXPECT_EQ(db.size(), 1u);
  EXPECT_EQ(db.quarantine().size(), 1u);
}

}  // namespace
}  // namespace memstress::estimator
