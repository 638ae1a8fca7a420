#include "study/study.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "layout/sram_layout.hpp"
#include "tech/model.hpp"
#include "util/error.hpp"

namespace memstress::study {
namespace {

using defects::Defect;
using defects::DefectKind;
using estimator::DbEntry;
using estimator::DetectabilityDb;
using layout::BridgeCategory;
using layout::OpenCategory;

/// Synthetic DB in which detectability is a pure function of category:
///   CellTrueFalse bridges  -> VLV only
///   CellAccess opens       -> Vmax only
///   SenseOut opens         -> at-speed only
///   CellNodeVdd bridges    -> detected nowhere (escapes)
///   CellNodeGnd bridges    -> detected everywhere (standard fails)
DetectabilityDb rule_db() {
  std::vector<DbEntry> entries;
  auto add_rule = [&entries](DefectKind kind, int category,
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
  add_rule(DefectKind::Bridge, static_cast<int>(BridgeCategory::CellTrueFalse),
           [](double vdd, double) { return vdd < 1.2; });
  add_rule(DefectKind::Open, static_cast<int>(OpenCategory::CellAccess),
           [](double vdd, double) { return vdd > 1.9; });
  add_rule(DefectKind::Open, static_cast<int>(OpenCategory::SenseOut),
           [](double, double period) { return period < 20e-9; });
  add_rule(DefectKind::Bridge, static_cast<int>(BridgeCategory::CellNodeVdd),
           [](double, double) { return false; });
  add_rule(DefectKind::Bridge, static_cast<int>(BridgeCategory::CellNodeGnd),
           [](double, double) { return true; });
  return DetectabilityDb(std::move(entries));
}

Defect bridge_of(BridgeCategory category) {
  Defect d;
  d.kind = DefectKind::Bridge;
  d.bridge_category = category;
  d.net_a = "x";
  d.net_b = "y";
  d.resistance = 1e4;
  return d;
}

Defect open_of(OpenCategory category) {
  Defect d;
  d.kind = DefectKind::Open;
  d.open_category = category;
  d.net_a = "j";
  d.resistance = 1e4;
  return d;
}

TEST(EvaluateDevice, CleanDeviceHasNoFlags) {
  const DeviceOutcome out = evaluate_device({}, StudyConfig{}, rule_db());
  EXPECT_EQ(out.defect_count, 0);
  EXPECT_FALSE(out.standard_fail);
  EXPECT_FALSE(out.interesting());
  EXPECT_FALSE(out.escape);
}

TEST(EvaluateDevice, VlvOnlyDefectIsInteresting) {
  const DeviceOutcome out = evaluate_device(
      {bridge_of(BridgeCategory::CellTrueFalse)}, StudyConfig{}, rule_db());
  EXPECT_TRUE(out.vlv_fail);
  EXPECT_FALSE(out.standard_fail);
  EXPECT_FALSE(out.vmax_fail);
  EXPECT_FALSE(out.atspeed_fail);
  EXPECT_TRUE(out.interesting());
}

TEST(EvaluateDevice, VmaxOnlyDefectIsInteresting) {
  // The paper's Chip-2: passes the standard (Vmin/Vnom) test, fails only
  // the Vmax stress screen.
  const DeviceOutcome out = evaluate_device(
      {open_of(OpenCategory::CellAccess)}, StudyConfig{}, rule_db());
  EXPECT_TRUE(out.vmax_fail);
  EXPECT_FALSE(out.standard_fail);
  EXPECT_TRUE(out.interesting());
}

TEST(EvaluateDevice, AtSpeedOnlyDefectIsInteresting) {
  const DeviceOutcome out = evaluate_device(
      {open_of(OpenCategory::SenseOut)}, StudyConfig{}, rule_db());
  EXPECT_TRUE(out.atspeed_fail);
  EXPECT_FALSE(out.standard_fail);
  EXPECT_TRUE(out.interesting());
}

TEST(EvaluateDevice, UndetectableDefectIsAnEscape) {
  const DeviceOutcome out = evaluate_device(
      {bridge_of(BridgeCategory::CellNodeVdd)}, StudyConfig{}, rule_db());
  EXPECT_TRUE(out.escape);
  EXPECT_FALSE(out.interesting());
}

TEST(EvaluateDevice, MultipleDefectsCombine) {
  const DeviceOutcome out = evaluate_device(
      {bridge_of(BridgeCategory::CellTrueFalse), open_of(OpenCategory::SenseOut)},
      StudyConfig{}, rule_db());
  EXPECT_TRUE(out.vlv_fail);
  EXPECT_TRUE(out.atspeed_fail);
  EXPECT_FALSE(out.standard_fail);
  EXPECT_TRUE(out.interesting());
  EXPECT_EQ(out.defect_count, 2);
}

TEST(VennCounts, TotalsAndRendering) {
  VennCounts venn;
  venn.vlv_only = 27;
  venn.vmax_only = 3;
  venn.atspeed_only = 3;
  venn.vlv_and_vmax = 2;
  venn.vlv_and_atspeed = 1;
  EXPECT_EQ(venn.total(), 36);
  const std::string text = venn.render();
  EXPECT_NE(text.find("27"), std::string::npos);
  EXPECT_NE(text.find("total interesting ... 36"), std::string::npos);
}

class StudyRunTest : public ::testing::Test {
 protected:
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
};

TEST_F(StudyRunTest, DeterministicForSameSeed) {
  // A permissive DB (everything detected everywhere) covers every category
  // the sampler can produce.
  std::vector<DbEntry> entries;
  for (int cat = 0; cat <= static_cast<int>(BridgeCategory::Other); ++cat)
    for (const double vdd : {1.0, 1.65, 1.8, 1.95})
      for (const double period : {100e-9, 25e-9, 15e-9}) {
        DbEntry e;
        e.kind = DefectKind::Bridge;
        e.category = cat;
        e.resistance = 1e4;
        e.vdd = vdd;
        e.period = period;
        e.detected = true;
        entries.push_back(e);
      }
  for (int cat = 0; cat <= static_cast<int>(OpenCategory::Other); ++cat)
    for (const double vdd : {1.0, 1.65, 1.8, 1.95})
      for (const double period : {100e-9, 25e-9, 15e-9}) {
        DbEntry e;
        e.kind = DefectKind::Open;
        e.category = cat;
        e.resistance = 1e4;
        e.vdd = vdd;
        e.period = period;
        e.detected = true;
        entries.push_back(e);
      }
  const DetectabilityDb db(std::move(entries));

  StudyConfig config;
  config.device_count = 500;
  config.seed = 77;
  const StudyResult a = run_study(config, db, make_sampler());
  const StudyResult b = run_study(config, db, make_sampler());
  EXPECT_EQ(a.defective, b.defective);
  EXPECT_EQ(a.standard_fails, b.standard_fails);
  EXPECT_EQ(a.venn.total(), b.venn.total());

  // With an everything-detected DB there are no escapes.
  EXPECT_EQ(a.escapes, 0);
  EXPECT_EQ(a.devices, 500);
  EXPECT_GT(a.defective, 0);
}

TEST_F(StudyRunTest, RejectsEmptyConfig) {
  StudyConfig config;
  config.device_count = 0;
  EXPECT_THROW(run_study(config, rule_db(), make_sampler()), Error);
}

TEST(StudyConfig, ChipAreaMatchesVeqtor4) {
  StudyConfig config;
  EXPECT_NEAR(config.chip_area_um2(), 4.0 * 256 * 1024 * 1.1, 1.0);
}

TEST(StudyResult, SummaryMentionsKeyNumbers) {
  StudyResult result;
  result.devices = 11000;
  result.defective = 700;
  result.standard_fails = 650;
  result.venn.vlv_only = 27;
  result.escapes_standard_only = 33;
  result.escapes_with_vlv = 3;
  result.escapes_with_vmax = 27;
  EXPECT_EQ(result.caught_by_vlv(), 30);
  EXPECT_EQ(result.caught_by_vmax(), 6);
  const std::string text = result.summary();
  EXPECT_NE(text.find("11000"), std::string::npos);
  EXPECT_NE(text.find("Screen effectiveness ratio"), std::string::npos);
}

TEST(MtjStudy, DrawsDefectsAtTheMtjDensity) {
  // An MTJ-mode sampler's devices carry defects at the MTJ fab model's
  // density (1.2e-7 per um^2), not at the conductor model's (8e-8), which
  // would leave about a third fewer devices defective.
  estimator::CharacterizeSpec spec =
      tech::default_characterize_spec(tech::Technology::SttMram);
  spec.block.rows = 2;
  spec.block.cols = 1;
  spec.threads = 1;
  const DetectabilityDb db = estimator::characterize(spec);
  const defects::DefectSampler sampler(defects::MtjFabModel{}, spec.block);
  StudyConfig config;
  config.device_count = 20000;
  config.threads = 1;
  const StudyResult result = run_study(config, db, sampler);

  const double lambda =
      defects::MtjFabModel{}.expected_defects(config.chip_area_um2());
  EXPECT_DOUBLE_EQ(sampler.expected_defects(config.chip_area_um2()), lambda);
  // A device is defective with probability 1 - exp(-lambda).
  const double n = static_cast<double>(config.device_count);
  const double p = 1.0 - std::exp(-lambda);
  EXPECT_NEAR(static_cast<double>(result.defective), n * p,
              4.0 * std::sqrt(n * p * (1.0 - p)));
}

}  // namespace
}  // namespace memstress::study
