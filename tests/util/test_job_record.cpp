// JobRecord: the one commit/resume record behind characterize(),
// run_study() and the coordinator merge. The checkpoint format is pinned
// byte for byte against snapshots written by the code the record replaced,
// every malformed row is rejected with a warning naming it, and lock-free
// commits from eight threads never produce a snapshot the final record
// contradicts.
#include "util/job_record.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "estimator/detectability.hpp"
#include "layout/sram_layout.hpp"
#include "march/library.hpp"
#include "study/study.hpp"
#include "util/chaos.hpp"
#include "util/checkpoint.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"

namespace memstress {
namespace {

namespace fs = std::filesystem;

// Snapshots, CRC footer included, that the pre-JobRecord characterize() and
// run_study() wrote for the fixtures below at one thread, killed by
// MEMSTRESS_CHAOS_CRASH=<kind>.checkpoint:2 (characterize: chaos 0.5:11,
// interval 6; study: 64 devices, interval 12).
const char kGoldenCharacterize[] =
    "characterize 1 57dbbe5a 26\n"
    "0 1\n"
    "1 1\n"
    "2 1\n"
    "3 Q 3 chaos: injected failure at characterize.point[3] attempt 3\n"
    "4 0\n"
    "5 0\n"
    "6 0\n"
    "7 0\n"
    "8 1\n"
    "9 1\n"
    "10 1\n"
    "11 1\n"
    "#memstress-ckpt crc32=c8395764 size=138\n";
const char kGoldenStudy[] =
    "study 1 b509859f 64\n"
    "0 0\n1 0\n2 0\n3 0\n4 0\n5 0\n6 0\n7 0\n8 0\n9 0\n10 0\n11 0\n12 0\n"
    "13 59\n"
    "14 0\n15 0\n16 0\n17 0\n18 0\n19 0\n20 0\n21 0\n"
    "22 73\n"
    "23 5\n"
    "#memstress-ckpt crc32=1d68c575 size=132\n";

/// The payload a golden file wraps (everything before its footer line).
std::string payload_of(const std::string& file) {
  return file.substr(0, file.rfind("#memstress-ckpt"));
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// Death tests pass `with_pid = false`: the death-test child is another
/// process, and the parent must find the checkpoint the child left behind.
std::string scratch_path(const std::string& tag, bool with_pid = true) {
  const std::string pid = with_pid ? "_" + std::to_string(::getpid()) : "";
  return (fs::temp_directory_path() /
          ("memstress_job_record_" + tag + pid + ".ckpt"))
      .string();
}

long long counter_value(const std::string& name) {
  for (const auto& c : metrics::collect().counters)
    if (c.name == name) return c.value;
  return 0;
}

class WarningCapture {
 public:
  WarningCapture() {
    set_log_sink([this](LogLevel level, const std::string& message) {
      if (level == LogLevel::Warn) warnings.push_back(message);
    });
  }
  ~WarningCapture() { set_log_sink({}); }
  std::vector<std::string> warnings;
};

class ChaosGuard {
 public:
  ~ChaosGuard() { chaos::disable(); }
};

/// A 26-point grid on the closed-form undervolt backend: real
/// characterize() code paths at unit-test speed.
estimator::CharacterizeSpec grid_spec() {
  estimator::CharacterizeSpec spec;
  spec.block.rows = 2;
  spec.block.cols = 1;
  spec.test = march::test_11n();
  spec.technology = tech::Technology::Undervolt;
  spec.vdds = {1.0, 1.8};
  spec.periods = {100e-9};
  spec.bridge_resistances = {1e3};
  spec.open_resistances = {1e6};
  spec.gox_vbds = {1.7};
  spec.threads = 1;
  spec.checkpoint_interval = 6;
  return spec;
}

/// Rule DB covering every samplable category (the study resume fixture).
estimator::DetectabilityDb mixed_db() {
  using defects::DefectKind;
  std::vector<estimator::DbEntry> entries;
  const auto add_rule = [&entries](DefectKind kind, int category,
                                   auto&& detected_fn) {
    for (const double vdd : {1.0, 1.65, 1.8, 1.95}) {
      for (const double period : {100e-9, 25e-9, 15e-9}) {
        estimator::DbEntry e;
        e.kind = kind;
        e.category = category;
        e.resistance = 1e4;
        e.vdd = vdd;
        e.period = period;
        e.detected = detected_fn(vdd, period);
        entries.push_back(e);
      }
    }
  };
  for (int cat = 0; cat <= static_cast<int>(layout::BridgeCategory::Other);
       ++cat) {
    if (cat % 3 == 0)
      add_rule(DefectKind::Bridge, cat,
               [](double vdd, double) { return vdd < 1.2; });
    else
      add_rule(DefectKind::Bridge, cat,
               [cat](double, double) { return cat % 3 == 1; });
  }
  for (int cat = 0; cat <= static_cast<int>(layout::OpenCategory::Other);
       ++cat) {
    if (cat % 2 == 0)
      add_rule(DefectKind::Open, cat,
               [](double vdd, double) { return vdd > 1.9; });
    else
      add_rule(DefectKind::Open, cat,
               [](double, double period) { return period < 20e-9; });
  }
  return estimator::DetectabilityDb(std::move(entries));
}

defects::DefectSampler make_sampler() {
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
  config.device_count = 64;
  config.seed = 2005;
  config.threads = 1;
  config.checkpoint_interval = 12;
  return config;
}

TEST(JobRecord, GoldenPayloadsRoundTripByteForByte) {
  const std::string characterize_payload = payload_of(kGoldenCharacterize);
  JobRecord grid(estimator::kCharacterizeJob, 0, 26);
  EXPECT_EQ(grid.restore(characterize_payload, "57dbbe5a", "golden"), 12u);
  EXPECT_EQ(grid.serialize("57dbbe5a"), characterize_payload);
  EXPECT_EQ(grid.code(0), 1);
  EXPECT_EQ(grid.code(4), 0);
  EXPECT_EQ(grid.code(3), -1);
  ASSERT_TRUE(grid.quarantine(3).has_value());
  EXPECT_EQ(grid.quarantine(3)->attempts, 3);
  EXPECT_EQ(grid.quarantine(3)->reason,
            "chaos: injected failure at characterize.point[3] attempt 3");
  EXPECT_FALSE(grid.done(12));

  const std::string study_payload = payload_of(kGoldenStudy);
  JobRecord devices(study::kStudyJob, 0, 64);
  EXPECT_EQ(devices.restore(study_payload, "b509859f", "golden"), 24u);
  EXPECT_EQ(devices.serialize("b509859f"), study_payload);
  const std::vector<int> codes = devices.codes();
  EXPECT_EQ(codes[13], 59);
  EXPECT_EQ(codes[22], 73);
  EXPECT_EQ(codes[24], -1);
}

TEST(JobRecordDeath, CrashedJobsWriteTheGoldenSnapshots) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  ChaosGuard guard;
  estimator::CharacterizeSpec spec = grid_spec();
  spec.checkpoint_path = scratch_path("golden_grid", false);
  fs::remove(spec.checkpoint_path);
  EXPECT_EXIT(
      {
        ::setenv("MEMSTRESS_CHAOS_CRASH", "characterize.checkpoint:2", 1);
        chaos::configure(0.5, 11);
        estimator::characterize(spec);
        std::_Exit(0);  // not reached: the run dies at the crash point
      },
      testing::ExitedWithCode(chaos::kCrashExitCode), "simulated crash");
  EXPECT_EQ(read_file(spec.checkpoint_path), kGoldenCharacterize);
  fs::remove(spec.checkpoint_path);

  study::StudyConfig config = study_config();
  config.checkpoint_path = scratch_path("golden_study", false);
  fs::remove(config.checkpoint_path);
  EXPECT_EXIT(
      {
        ::setenv("MEMSTRESS_CHAOS_CRASH", "study.checkpoint:2", 1);
        study::run_study(config, mixed_db(), make_sampler());
        std::_Exit(0);
      },
      testing::ExitedWithCode(chaos::kCrashExitCode), "simulated crash");
  EXPECT_EQ(read_file(config.checkpoint_path), kGoldenStudy);
  fs::remove(config.checkpoint_path);
}

TEST(JobRecord, GoldenSnapshotsResumeToTheUninterruptedResult) {
  ChaosGuard guard;
  metrics::set_enabled(true);
  chaos::configure(0.5, 11);
  const estimator::DetectabilityDb fresh_db =
      estimator::characterize(grid_spec());
  estimator::CharacterizeSpec spec = grid_spec();
  spec.checkpoint_path = scratch_path("resume_grid");
  checkpoint::write_file_atomic(spec.checkpoint_path, kGoldenCharacterize);
  metrics::reset();
  const estimator::DetectabilityDb resumed_db = estimator::characterize(spec);
  EXPECT_EQ(counter_value("robust.checkpoints_resumed"), 1);
  EXPECT_EQ(resumed_db.to_csv(), fresh_db.to_csv());
  ASSERT_EQ(resumed_db.quarantine().size(), fresh_db.quarantine().size());
  for (std::size_t i = 0; i < fresh_db.quarantine().size(); ++i)
    EXPECT_EQ(resumed_db.quarantine()[i].describe(),
              fresh_db.quarantine()[i].describe());
  EXPECT_FALSE(fs::exists(spec.checkpoint_path));
  chaos::disable();

  const auto db = mixed_db();
  const auto sampler = make_sampler();
  const study::StudyResult fresh =
      study::run_study(study_config(), db, sampler);
  study::StudyConfig config = study_config();
  config.checkpoint_path = scratch_path("resume_study");
  checkpoint::write_file_atomic(config.checkpoint_path, kGoldenStudy);
  metrics::reset();
  const study::StudyResult resumed = study::run_study(config, db, sampler);
  EXPECT_EQ(counter_value("robust.checkpoints_resumed"), 1);
  EXPECT_EQ(resumed.summary(), fresh.summary());
  EXPECT_FALSE(fs::exists(config.checkpoint_path));
  metrics::reset();
  metrics::set_enabled(false);
}

/// Restores `payload` into a fresh record of `kind` over [0, count) and
/// expects it rejected whole, with one warning naming `row`.
void expect_rejected(const JobKind& kind, std::size_t count,
                     const std::string& payload, std::size_t row) {
  JobRecord record(kind, 0, count);
  WarningCapture capture;
  EXPECT_EQ(record.restore(payload, "0badf00d", "test.ckpt"), 0u) << payload;
  for (std::size_t i = 0; i < count; ++i) {
    EXPECT_FALSE(record.done(i)) << "row applied from a rejected payload";
    EXPECT_FALSE(record.quarantine(i).has_value());
  }
  ASSERT_EQ(capture.warnings.size(), 1u) << payload;
  const std::string& warning = capture.warnings[0];
  EXPECT_NE(warning.find("test.ckpt: row " + std::to_string(row) + ": "),
            std::string::npos)
      << warning;
  EXPECT_NE(warning.find("restarting from scratch"), std::string::npos);
}

const JobKind& kGrid = estimator::kCharacterizeJob;
const JobKind& kDevices = study::kStudyJob;

TEST(JobRecord, RejectsDuplicateIndex) {
  expect_rejected(kGrid, 4, "characterize 1 0badf00d 4\n0 1\n1 0\n1 1\n", 4);
}

TEST(JobRecord, RejectsIndexAtOrPastCount) {
  expect_rejected(kGrid, 4, "characterize 1 0badf00d 4\n0 1\n4 0\n", 3);
  expect_rejected(kDevices, 4, "study 1 0badf00d 4\n9 0\n", 2);
}

TEST(JobRecord, RejectsStudyCodeAbove127) {
  expect_rejected(kDevices, 4, "study 1 0badf00d 4\n0 127\n1 128\n", 3);
}

TEST(JobRecord, RejectsVerdictOtherThanZeroOneOrQ) {
  expect_rejected(kGrid, 4, "characterize 1 0badf00d 4\n0 1\n1 2\n", 3);
  expect_rejected(kGrid, 4, "characterize 1 0badf00d 4\n0 X\n", 2);
  expect_rejected(kGrid, 4, "characterize 1 0badf00d 4\n0 -1\n", 2);
}

TEST(JobRecord, RejectsQuarantineAttemptsBelowOne) {
  expect_rejected(kGrid, 4,
                  "characterize 1 0badf00d 4\n0 1\n1 Q 0 solver: stuck\n", 3);
  expect_rejected(kGrid, 4, "characterize 1 0badf00d 4\n1 Q\n", 2);
}

TEST(JobRecord, RejectsTrailingField) {
  expect_rejected(kGrid, 4, "characterize 1 0badf00d 4\n0 1 1\n", 2);
  expect_rejected(kDevices, 4, "study 1 0badf00d 4\n0 5\n1 5 x\n", 3);
}

TEST(JobRecord, RejectsHeaderKindFingerprintOrCountMismatch) {
  expect_rejected(kGrid, 4, "study 1 0badf00d 4\n0 1\n", 1);
  expect_rejected(kGrid, 4, "characterize 1 00000000 4\n0 1\n", 1);
  expect_rejected(kGrid, 4, "characterize 1 0badf00d 5\n0 1\n", 1);
  expect_rejected(kGrid, 4, "characterize 2 0badf00d 4\n0 1\n", 1);
  expect_rejected(kGrid, 4, "", 1);
}

TEST(JobRecord, QuarantineReasonRunsToTheEndOfTheLine) {
  JobRecord record(kGrid, 0, 3);
  EXPECT_EQ(record.restore("characterize 1 0badf00d 3\n"
                           "0 Q 2 newton: no  convergence \n1 Q 1 \n2 Q 3\n",
                           "0badf00d", "test.ckpt"),
            3u);
  EXPECT_EQ(record.quarantine(0)->reason, "newton: no  convergence ");
  EXPECT_EQ(record.quarantine(1)->reason, "");
  EXPECT_EQ(record.quarantine(2)->reason, "unknown");
}

/// Run 100 commits at one thread, tripping the job token at index 9, and
/// return the warnings the cancelled run() logged.
std::vector<std::string> cancel_after_index_9(JobRecord& record) {
  CancelToken token;
  WarningCapture capture;
  EXPECT_THROW(record.run([&] {
    parallel_for(100,
                 [&](std::size_t i) {
                   record.commit(i, 1);
                   if (i == 9) token.request_cancel();
                 },
                 1, &token);
  }),
               CancelledError);
  return capture.warnings;
}

TEST(JobRecord, CancelWithoutCheckpointCountsTheFinishedIndices) {
  // No checkpoint: commits count nothing, so the warning counts the slots.
  JobRecord record(JobKind{"cancelled", "items", 1}, 0, 100);
  const std::vector<std::string> warnings = cancel_after_index_9(record);
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_NE(warnings[0].find("cancelled after 10 items; no checkpoint"),
            std::string::npos)
      << warnings[0];
}

TEST(JobRecord, CancelWithCheckpointCountsCommitsAndFlushesThem) {
  const std::string path = scratch_path("cancel");
  fs::remove(path);
  JobRecord record(JobKind{"cancelled", "items", 1}, 0, 100);
  record.attach_checkpoint(path, 1000, 1000,
                           [] { return std::string("0badf00d"); });
  const std::vector<std::string> warnings = cancel_after_index_9(record);
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_NE(warnings[0].find("cancelled after 10 items; checkpoint flushed"),
            std::string::npos)
      << warnings[0];
  JobRecord resumed(JobKind{"cancelled", "items", 1}, 0, 100);
  const std::optional<std::string> payload = checkpoint::load(path);
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(resumed.restore(*payload, "0badf00d", path), 10u);
  fs::remove(path);
}

TEST(JobRecord, EightThreadCommitHammerSnapshotsAreSubsetsOfTheFinal) {
  // Interval 1: every commit writes a snapshot. Each committing thread reads
  // the file back right after its own commit — by then the file holds that
  // commit's snapshot or a later one — and restores it: every restored row
  // must match the final record, and the thread's own index must be in it.
  constexpr std::size_t kCount = 400;
  const JobKind kind{"hammer", "items", 127};
  const auto expected_code = [](std::size_t i) {
    return static_cast<int>((i * 37) % 128);
  };
  const auto quarantined = [](std::size_t i) { return i % 50 == 7; };
  const std::string path = scratch_path("hammer");
  fs::remove(path);
  metrics::set_enabled(true);
  metrics::reset();

  JobRecord record(kind, 0, kCount);
  record.attach_checkpoint(path, 1, 1, [] { return std::string("feedc0de"); });
  std::atomic<int> bad_snapshots{0};
  const auto body = [&](std::size_t i) {
    if (quarantined(i))
      record.quarantine(i, 2, "flaky lane " + std::to_string(i));
    else
      record.commit(i, expected_code(i));
    const std::optional<std::string> payload = checkpoint::load(path);
    JobRecord snapshot(kind, 0, kCount);
    if (!payload || snapshot.restore(*payload, "feedc0de", path) == 0 ||
        !snapshot.done(i)) {
      ++bad_snapshots;
      return;
    }
    for (std::size_t j = 0; j < kCount; ++j) {
      if (!snapshot.done(j)) continue;
      const bool ok =
          quarantined(j)
              ? snapshot.quarantine(j)->reason == "flaky lane " +
                                                      std::to_string(j)
              : snapshot.code(j) == expected_code(j);
      if (!ok) ++bad_snapshots;
    }
  };
  record.run([&] { parallel_for(kCount, body, 8); });

  EXPECT_EQ(bad_snapshots.load(), 0);
  EXPECT_EQ(counter_value("robust.checkpoints_written"),
            static_cast<long long>(kCount));
  EXPECT_FALSE(fs::exists(path));  // removed on success
  for (std::size_t i = 0; i < kCount; ++i) {
    if (quarantined(i)) {
      ASSERT_TRUE(record.quarantine(i).has_value()) << i;
      EXPECT_EQ(record.quarantine(i)->attempts, 2);
    } else {
      EXPECT_EQ(record.code(i), expected_code(i)) << i;
    }
  }
  metrics::reset();
  metrics::set_enabled(false);
}

}  // namespace
}  // namespace memstress
