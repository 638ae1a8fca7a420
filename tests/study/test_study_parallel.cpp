// The Monte-Carlo study must produce the same counts at any thread count:
// device d owns an Rng child stream seeded by the master stream's d-th draw,
// and the blocks of devices the study fans out over depend only on the
// device count, so scheduling cannot leak into the results.
#include "study/study.hpp"

#include <gtest/gtest.h>

#include "layout/sram_layout.hpp"

namespace memstress::study {
namespace {

using defects::DefectKind;
using estimator::DbEntry;
using estimator::DetectabilityDb;
using layout::BridgeCategory;
using layout::OpenCategory;

/// Rule DB spanning every category the sampler can emit, with a mix of
/// standard fails, stress-only fails and escapes so every StudyResult
/// counter is exercised.
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
    // Alternate: VLV-only, always-detected, never-detected.
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
    // Alternate: Vmax-only, at-speed-only.
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

bool same_result(const StudyResult& a, const StudyResult& b) {
  return a.devices == b.devices && a.defective == b.defective &&
         a.standard_fails == b.standard_fails && a.escapes == b.escapes &&
         a.escapes_standard_only == b.escapes_standard_only &&
         a.escapes_with_vlv == b.escapes_with_vlv &&
         a.escapes_with_vmax == b.escapes_with_vmax &&
         a.escapes_with_atspeed == b.escapes_with_atspeed &&
         a.venn.vlv_only == b.venn.vlv_only &&
         a.venn.vmax_only == b.venn.vmax_only &&
         a.venn.atspeed_only == b.venn.atspeed_only &&
         a.venn.vlv_and_vmax == b.venn.vlv_and_vmax &&
         a.venn.vlv_and_atspeed == b.venn.vlv_and_atspeed &&
         a.venn.vmax_and_atspeed == b.venn.vmax_and_atspeed &&
         a.venn.all_three == b.venn.all_three;
}

TEST(StudyParallelDeterminism, CountsInvariantAcrossThreadCounts) {
  const DetectabilityDb db = mixed_db();
  const auto sampler = make_sampler();

  StudyConfig config;
  config.device_count = 4000;
  config.seed = 2005;

  config.threads = 1;
  const StudyResult serial = run_study(config, db, sampler);
  // The seed-2005 serial run is the baseline every thread count must hit.
  EXPECT_GT(serial.defective, 0);

  for (const int threads : {2, 8}) {
    config.threads = threads;
    const StudyResult parallel = run_study(config, db, sampler);
    EXPECT_TRUE(same_result(serial, parallel))
        << "thread count " << threads << " changed the study outcome:\n"
        << "serial:\n" << serial.summary() << "parallel:\n"
        << parallel.summary();
  }
}

TEST(StudyParallelDeterminism, RepeatedParallelRunsIdentical) {
  const DetectabilityDb db = mixed_db();
  const auto sampler = make_sampler();
  StudyConfig config;
  config.device_count = 2000;
  config.seed = 99;
  config.threads = 4;
  const StudyResult a = run_study(config, db, sampler);
  const StudyResult b = run_study(config, db, sampler);
  EXPECT_TRUE(same_result(a, b));
}

TEST(StudyParallelDeterminism, DifferentSeedsDiffer) {
  const DetectabilityDb db = mixed_db();
  const auto sampler = make_sampler();
  StudyConfig config;
  config.device_count = 2000;
  config.threads = 4;
  config.seed = 1;
  const StudyResult a = run_study(config, db, sampler);
  config.seed = 2;
  const StudyResult b = run_study(config, db, sampler);
  EXPECT_FALSE(same_result(a, b));
}

}  // namespace
}  // namespace memstress::study
