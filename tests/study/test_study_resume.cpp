// Checkpoint/resume for the Monte-Carlo study: a crashed run must resume to
// the identical StudyResult, also when the snapshot restores only part of a
// block of the fan-out, a corrupt or foreign checkpoint must be rejected
// with a warning and a clean restart, and cancellation must flush a
// resumable snapshot.
#include "study/study.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "layout/sram_layout.hpp"
#include "util/chaos.hpp"
#include "util/checkpoint.hpp"
#include "util/log.hpp"

namespace memstress::study {
namespace {

namespace fs = std::filesystem;

using defects::DefectKind;
using estimator::DbEntry;
using estimator::DetectabilityDb;
using layout::BridgeCategory;
using layout::OpenCategory;

/// Rule DB covering every samplable category (same shape as the study
/// parallel-determinism fixture).
DetectabilityDb mixed_db() {
  std::vector<DbEntry> entries;
  const auto add_rule = [&entries](DefectKind kind, int category,
                                   auto&& detected_fn) {
    for (const double vdd : {1.0, 1.65, 1.8, 1.95}) {
      for (const double period : {100e-9, 25e-9, 15e-9}) {
        DbEntry e;
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
  for (int cat = 0; cat <= static_cast<int>(BridgeCategory::Other); ++cat) {
    switch (cat % 3) {
      case 0:
        add_rule(DefectKind::Bridge, cat,
                 [](double vdd, double) { return vdd < 1.2; });
        break;
      case 1:
        add_rule(DefectKind::Bridge, cat, [](double, double) { return true; });
        break;
      default:
        add_rule(DefectKind::Bridge, cat, [](double, double) { return false; });
        break;
    }
  }
  for (int cat = 0; cat <= static_cast<int>(OpenCategory::Other); ++cat) {
    if (cat % 2 == 0)
      add_rule(DefectKind::Open, cat,
               [](double vdd, double) { return vdd > 1.9; });
    else
      add_rule(DefectKind::Open, cat,
               [](double, double period) { return period < 20e-9; });
  }
  return DetectabilityDb(std::move(entries));
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

StudyConfig small_config() {
  StudyConfig config;
  config.device_count = 3000;
  config.seed = 2005;
  return config;
}

bool same_result(const StudyResult& a, const StudyResult& b) {
  return a.summary() == b.summary();
}

TEST(StudyCheckpoint, CompletedRunRemovesItsCheckpoint) {
  const DetectabilityDb db = mixed_db();
  const auto sampler = make_sampler();
  StudyConfig config = small_config();
  const StudyResult fresh = run_study(config, db, sampler);

  config.checkpoint_path =
      (fs::temp_directory_path() /
       ("memstress_study_done_" + std::to_string(::getpid()) + ".ckpt"))
          .string();
  config.checkpoint_interval = 500;
  const StudyResult checkpointed = run_study(config, db, sampler);
  EXPECT_TRUE(same_result(fresh, checkpointed));
  EXPECT_FALSE(fs::exists(config.checkpoint_path));
}

TEST(StudyCheckpoint, CorruptCheckpointWarnsAndRestartsScratch) {
  const DetectabilityDb db = mixed_db();
  const auto sampler = make_sampler();
  StudyConfig config = small_config();
  const StudyResult fresh = run_study(config, db, sampler);

  config.checkpoint_path =
      (fs::temp_directory_path() /
       ("memstress_study_corrupt_" + std::to_string(::getpid()) + ".ckpt"))
          .string();
  {
    std::ofstream out(config.checkpoint_path, std::ios::binary);
    out << "\x7f@!( this was never a checkpoint\n";
  }
  std::vector<std::string> warnings;
  set_log_sink([&warnings](LogLevel level, const std::string& message) {
    if (level == LogLevel::Warn) warnings.push_back(message);
  });
  const StudyResult resumed = run_study(config, db, sampler);
  set_log_sink({});
  EXPECT_TRUE(same_result(fresh, resumed));
  ASSERT_FALSE(warnings.empty());
  EXPECT_NE(warnings[0].find("restarting from scratch"), std::string::npos);
  fs::remove(config.checkpoint_path);
}

TEST(StudyCheckpoint, ForeignExperimentCheckpointRejected) {
  const DetectabilityDb db = mixed_db();
  const auto sampler = make_sampler();
  StudyConfig config = small_config();
  const StudyResult fresh = run_study(config, db, sampler);

  config.checkpoint_path =
      (fs::temp_directory_path() /
       ("memstress_study_foreign_" + std::to_string(::getpid()) + ".ckpt"))
          .string();
  // Structurally valid, but fingerprinted for a different experiment; the
  // masks claim every device is a clean pass, which would corrupt the
  // counts if it were accepted.
  std::string payload = "study 1 00000000 3000\n";
  for (int d = 0; d < 3000; ++d) payload += std::to_string(d) + " 0\n";
  checkpoint::save(config.checkpoint_path, payload);

  std::vector<std::string> warnings;
  set_log_sink([&warnings](LogLevel level, const std::string& message) {
    if (level == LogLevel::Warn) warnings.push_back(message);
  });
  const StudyResult resumed = run_study(config, db, sampler);
  set_log_sink({});
  EXPECT_TRUE(same_result(fresh, resumed));
  ASSERT_FALSE(warnings.empty());
  EXPECT_NE(warnings[0].find("does not match"), std::string::npos);
  fs::remove(config.checkpoint_path);
}

TEST(StudyCheckpoint, CancelledRunFlushesResumableSnapshot) {
  const DetectabilityDb db = mixed_db();
  const auto sampler = make_sampler();
  StudyConfig config = small_config();
  const StudyResult fresh = run_study(config, db, sampler);

  config.checkpoint_path =
      (fs::temp_directory_path() /
       ("memstress_study_cancel_" + std::to_string(::getpid()) + ".ckpt"))
          .string();
  config.checkpoint_interval = 100;
  config.threads = 4;
  // A pre-tripped token is the one deterministic cancellation: the job
  // unwinds before any device runs, and the flush-on-cancel path must still
  // leave a valid (empty-progress) snapshot behind.
  CancelToken token;
  token.request_cancel();
  config.cancel = &token;

  std::vector<std::string> warnings;
  set_log_sink([&warnings](LogLevel level, const std::string& message) {
    if (level == LogLevel::Warn) warnings.push_back(message);
  });
  EXPECT_THROW(run_study(config, db, sampler), CancelledError);
  set_log_sink({});
  ASSERT_FALSE(warnings.empty());
  EXPECT_NE(warnings[0].find("cancelled after 0 devices"), std::string::npos);
  EXPECT_NE(warnings[0].find(config.checkpoint_path), std::string::npos);
  ASSERT_TRUE(fs::exists(config.checkpoint_path));

  // The flushed snapshot resumes (here: restarts) to the fresh-run result
  // and is consumed on success.
  config.cancel = nullptr;
  const StudyResult resumed = run_study(config, db, sampler);
  EXPECT_TRUE(same_result(fresh, resumed));
  EXPECT_FALSE(fs::exists(config.checkpoint_path));
}

TEST(StudyCheckpoint, ResumeThatRestoresPartOfABlockMatchesTheCleanRun) {
  // 3,000 devices fan out in blocks of 12. The snapshot restores devices
  // 5..8 of block 0 and 100..103 of block 8 (96..107). Each restored device
  // still consumes its seed draw, so the devices after it in its block draw
  // theirs unchanged, and the resume reproduces the clean run.
  const DetectabilityDb db = mixed_db();
  const auto sampler = make_sampler();
  StudyConfig config = small_config();
  const StudyResult fresh = run_study(config, db, sampler);
  const std::vector<int> masks = run_study_range(config, db, sampler, 0, 3000);

  config.checkpoint_path =
      (fs::temp_directory_path() /
       ("memstress_study_partial_" + std::to_string(::getpid()) + ".ckpt"))
          .string();
  fs::remove(config.checkpoint_path);
  // A pre-cancelled run leaves the snapshot header, fingerprint included.
  CancelToken token;
  token.request_cancel();
  config.cancel = &token;
  set_log_sink([](LogLevel, const std::string&) {});
  EXPECT_THROW(run_study(config, db, sampler), CancelledError);
  set_log_sink({});
  config.cancel = nullptr;
  const std::optional<std::string> header =
      checkpoint::load(config.checkpoint_path);
  ASSERT_TRUE(header.has_value());

  const std::vector<std::size_t> restored = {5, 6, 7, 8, 100, 101, 102, 103};
  const auto resume_with = [&](const std::vector<int>& codes) {
    std::string payload = *header;
    for (const std::size_t d : restored)
      payload += std::to_string(d) + " " + std::to_string(codes[d]) + "\n";
    checkpoint::save(config.checkpoint_path, payload);
    return run_study(config, db, sampler);
  };
  for (const int threads : {1, 4}) {
    config.threads = threads;
    EXPECT_TRUE(same_result(fresh, resume_with(masks))) << "threads " << threads;
    EXPECT_FALSE(fs::exists(config.checkpoint_path));
  }

  // A restored device is counted as the snapshot says, not re-evaluated:
  // marking a clean one defective-but-caught-by-nothing (mask 1) adds
  // exactly one defective device.
  std::size_t clean = restored.size();
  for (std::size_t k = 0; k < restored.size() && clean == restored.size(); ++k)
    if (masks[restored[k]] == 0) clean = k;
  ASSERT_LT(clean, restored.size());
  std::vector<int> marked = masks;
  marked[restored[clean]] = 1;
  const StudyResult resumed = resume_with(marked);
  EXPECT_EQ(resumed.devices, fresh.devices);
  EXPECT_EQ(resumed.defective, fresh.defective + 1);
  EXPECT_EQ(resumed.escapes_standard_only, fresh.escapes_standard_only + 1);
  fs::remove(config.checkpoint_path);
}

TEST(StudyCheckpointDeath, CrashedRunResumesToIdenticalResult) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const DetectabilityDb db = mixed_db();
  const auto sampler = make_sampler();
  StudyConfig config = small_config();
  // Fixed (pid-free) path: the parent must find the checkpoint the crashed
  // death-test child left behind.
  config.checkpoint_path =
      (fs::temp_directory_path() / "memstress_study_resume.ckpt").string();
  config.checkpoint_interval = 250;
  fs::remove(config.checkpoint_path);

  EXPECT_EXIT(
      {
        ::setenv("MEMSTRESS_CHAOS_CRASH", "study.checkpoint:3", 1);
        StudyConfig child = config;
        child.threads = 2;
        run_study(child, db, sampler);
        std::_Exit(0);  // not reached: the run must die at the crash point
      },
      testing::ExitedWithCode(chaos::kCrashExitCode), "simulated crash");
  ASSERT_TRUE(fs::exists(config.checkpoint_path));
  // A successful resume consumes the checkpoint, so stash the crashed
  // snapshot's bytes to replay the resume at a second thread count.
  std::string snapshot;
  {
    std::ifstream in(config.checkpoint_path, std::ios::binary);
    snapshot.assign(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
  }
  ASSERT_FALSE(snapshot.empty());

  StudyConfig fresh_config = small_config();
  const StudyResult fresh = run_study(fresh_config, db, sampler);
  for (const int threads : {1, 8}) {
    {
      std::ofstream out(config.checkpoint_path, std::ios::binary);
      out << snapshot;
    }
    config.threads = threads;
    const StudyResult resumed = run_study(config, db, sampler);
    EXPECT_TRUE(same_result(fresh, resumed)) << "threads " << threads;
    EXPECT_FALSE(fs::exists(config.checkpoint_path)) << "threads " << threads;
  }
  fs::remove(config.checkpoint_path);
}

}  // namespace
}  // namespace memstress::study
