// run_study_range() + reduce_study(): the worker and merge halves of the
// distributed study. Shard layout must be invisible: device d's seed is the
// master stream's d-th draw however the shard's blocks fall, so its RNG
// stream is the same whether it runs in a 1-device shard or the whole
// population at once.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "defects/sampler.hpp"
#include "layout/sram_layout.hpp"
#include "study/study.hpp"
#include "util/error.hpp"

namespace memstress::study {
namespace {

using estimator::DbEntry;
using estimator::DetectabilityDb;
using layout::BridgeCategory;
using layout::OpenCategory;

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

/// Every category at every stress corner, detectability split so all the
/// interesting outcome classes (standard fail, VLV-only, escapes) occur.
DetectabilityDb mixed_db() {
  std::vector<DbEntry> entries;
  const auto add = [&entries](defects::DefectKind kind, int category,
                              bool detected, double vdd, double period) {
    DbEntry e;
    e.kind = kind;
    e.category = category;
    e.resistance = 1e4;
    e.vdd = vdd;
    e.period = period;
    e.detected = detected;
    entries.push_back(e);
  };
  for (int cat = 0; cat <= static_cast<int>(BridgeCategory::Other); ++cat)
    for (const double vdd : {1.0, 1.65, 1.8, 1.95})
      for (const double period : {100e-9, 25e-9, 15e-9})
        add(defects::DefectKind::Bridge, cat, vdd < 1.2 || cat % 3 == 0, vdd,
            period);
  for (int cat = 0; cat <= static_cast<int>(OpenCategory::Other); ++cat)
    for (const double vdd : {1.0, 1.65, 1.8, 1.95})
      for (const double period : {100e-9, 25e-9, 15e-9})
        add(defects::DefectKind::Open, cat, vdd > 1.9 && cat % 2 == 0, vdd,
            period);
  return DetectabilityDb(std::move(entries));
}

StudyConfig small_config() {
  StudyConfig config;
  config.device_count = 400;
  config.seed = 99;
  config.threads = 1;
  return config;
}

void expect_equal(const StudyResult& a, const StudyResult& b) {
  EXPECT_EQ(a.devices, b.devices);
  EXPECT_EQ(a.defective, b.defective);
  EXPECT_EQ(a.standard_fails, b.standard_fails);
  EXPECT_EQ(a.escapes, b.escapes);
  EXPECT_EQ(a.escapes_standard_only, b.escapes_standard_only);
  EXPECT_EQ(a.escapes_with_vlv, b.escapes_with_vlv);
  EXPECT_EQ(a.escapes_with_vmax, b.escapes_with_vmax);
  EXPECT_EQ(a.escapes_with_atspeed, b.escapes_with_atspeed);
  EXPECT_EQ(a.venn.total(), b.venn.total());
  EXPECT_EQ(a.venn.vlv_only, b.venn.vlv_only);
  EXPECT_EQ(a.summary(), b.summary());
}

TEST(StudyRange, ShardedMasksReduceToTheFullRunResult) {
  const StudyConfig config = small_config();
  const DetectabilityDb db = mixed_db();
  const StudyResult full = run_study(config, db, make_sampler());
  ASSERT_GT(full.defective, 0);

  const std::size_t devices = static_cast<std::size_t>(config.device_count);
  for (const std::size_t shard : {std::size_t{1}, std::size_t{37}, devices}) {
    std::vector<int> masks;
    for (std::size_t begin = 0; begin < devices; begin += shard) {
      const std::size_t end = std::min(devices, begin + shard);
      const std::vector<int> part =
          run_study_range(config, db, make_sampler(), begin, end);
      EXPECT_EQ(part.size(), end - begin);
      masks.insert(masks.end(), part.begin(), part.end());
    }
    expect_equal(reduce_study(config, masks), full);
  }
}

TEST(StudyRange, ShardsThatCutBlocksMatchTheUnshardedRun) {
  // 5,000 devices fan out in blocks of 20; these shards start and end
  // inside blocks, and the last holds one device. Four threads write the
  // blocks' tallies.
  StudyConfig config = small_config();
  config.device_count = 5000;
  config.threads = 4;
  const DetectabilityDb db = mixed_db();
  const std::vector<int> whole =
      run_study_range(config, db, make_sampler(), 0, 5000);
  std::vector<int> masks;
  for (const auto& [begin, end] :
       {std::pair<std::size_t, std::size_t>{0, 1234}, {1234, 4999},
        {4999, 5000}}) {
    const std::vector<int> part =
        run_study_range(config, db, make_sampler(), begin, end);
    ASSERT_EQ(part.size(), end - begin);
    masks.insert(masks.end(), part.begin(), part.end());
  }
  EXPECT_EQ(masks, whole);
  const StudyResult full = run_study(config, db, make_sampler());
  ASSERT_GT(full.defective, 0);
  expect_equal(reduce_study(config, masks), full);
}

TEST(StudyRange, UnresolvedDevicesAreExcludedFromEveryTally) {
  const StudyConfig config = small_config();
  const DetectabilityDb db = mixed_db();
  const std::size_t devices = static_cast<std::size_t>(config.device_count);

  std::vector<int> masks =
      run_study_range(config, db, make_sampler(), 0, devices);
  const StudyResult full = reduce_study(config, masks);
  // Drop the first 100 devices as an unresolved shard: the remaining
  // tallies must match a reduce over only the resolved suffix.
  std::vector<int> holes = masks;
  for (std::size_t d = 0; d < 100; ++d) holes[d] = -1;
  const StudyResult partial = reduce_study(config, holes);
  EXPECT_EQ(partial.devices, full.devices - 100);
  EXPECT_LE(partial.defective, full.defective);
  // Re-filling the holes restores the full result exactly.
  expect_equal(reduce_study(config, masks), full);
}

TEST(StudyRange, NoResolvedDeviceSummarizesWithoutAYield) {
  // A coordinator run whose every shard was unresolved reduces to zero
  // devices; its summary must not divide by them.
  const StudyResult none =
      reduce_study(small_config(), std::vector<int>(400, -1));
  EXPECT_EQ(none.devices, 0);
  const std::string summary = none.summary();
  EXPECT_NE(summary.find("Devices tested: 0\nDefective: 0\n"),
            std::string::npos)
      << summary;
  EXPECT_EQ(summary.find("nan"), std::string::npos) << summary;
  EXPECT_EQ(summary.find("yield"), std::string::npos) << summary;
}

TEST(StudyRange, RejectsBadBoundsAndMaskCounts) {
  const StudyConfig config = small_config();
  const DetectabilityDb db = mixed_db();
  EXPECT_THROW(run_study_range(config, db, make_sampler(), 5, 4), Error);
  EXPECT_THROW(run_study_range(config, db, make_sampler(), 0,
                               static_cast<std::size_t>(config.device_count) +
                                   1),
               Error);
  EXPECT_THROW(reduce_study(config, std::vector<int>(3, 0)), Error);
  EXPECT_THROW(reduce_study(config, std::vector<int>(
                                        static_cast<std::size_t>(
                                            config.device_count),
                                        128)),
               Error);
}

}  // namespace
}  // namespace memstress::study
