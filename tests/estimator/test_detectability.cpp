#include "estimator/detectability.hpp"

#include <gtest/gtest.h>

#include <cstdio>

#include "util/error.hpp"

namespace memstress::estimator {
namespace {

using defects::Defect;
using defects::DefectKind;
using layout::BridgeCategory;
using layout::OpenCategory;

DbEntry entry(DefectKind kind, int category, double r, double vdd, double period,
              bool detected, double vbd = 0.0) {
  DbEntry e;
  e.kind = kind;
  e.category = category;
  e.resistance = r;
  e.vbd = vbd;
  e.vdd = vdd;
  e.period = period;
  e.detected = detected;
  return e;
}

/// A synthetic database encoding a "VLV detects high-ohmic bridges" rule.
DetectabilityDb synthetic_db() {
  std::vector<DbEntry> entries;
  const int cat = static_cast<int>(BridgeCategory::CellTrueFalse);
  for (const double vdd : {1.0, 1.65, 1.8, 1.95}) {
    for (const double period : {100e-9, 25e-9, 15e-9}) {
      entries.push_back(entry(DefectKind::Bridge, cat, 1e3, vdd, period, true));
      entries.push_back(
          entry(DefectKind::Bridge, cat, 90e3, vdd, period, vdd < 1.2));
    }
  }
  const int open_cat = static_cast<int>(OpenCategory::CellAccess);
  for (const double vdd : {1.0, 1.65, 1.8, 1.95}) {
    for (const double period : {100e-9, 25e-9, 15e-9}) {
      // Opens detected only at Vmax in this synthetic world.
      entries.push_back(
          entry(DefectKind::Open, open_cat, 30e3, vdd, period, vdd > 1.9));
    }
  }
  return DetectabilityDb(std::move(entries));
}

TEST(DetectabilityDb, ExactLookup) {
  const DetectabilityDb db = synthetic_db();
  const int cat = static_cast<int>(BridgeCategory::CellTrueFalse);
  EXPECT_TRUE(db.detected(DefectKind::Bridge, cat, 1e3, 1.8, 25e-9));
  EXPECT_FALSE(db.detected(DefectKind::Bridge, cat, 90e3, 1.8, 25e-9));
  EXPECT_TRUE(db.detected(DefectKind::Bridge, cat, 90e3, 1.0, 100e-9));
}

TEST(DetectabilityDb, NearestResistanceInLogSpace) {
  const DetectabilityDb db = synthetic_db();
  const int cat = static_cast<int>(BridgeCategory::CellTrueFalse);
  // 5 kOhm is log-closer to 1 kOhm than to 90 kOhm.
  EXPECT_TRUE(db.detected(DefectKind::Bridge, cat, 5e3, 1.8, 25e-9));
  // 40 kOhm is log-closer to 90 kOhm.
  EXPECT_FALSE(db.detected(DefectKind::Bridge, cat, 40e3, 1.8, 25e-9));
}

TEST(DetectabilityDb, ConditionDistanceDominatesResistance) {
  const DetectabilityDb db = synthetic_db();
  const int cat = static_cast<int>(BridgeCategory::CellTrueFalse);
  // Slightly off-grid voltage must still resolve to the nearest corner
  // rather than jumping to another resistance bin.
  EXPECT_TRUE(db.detected(DefectKind::Bridge, cat, 90e3, 1.02, 100e-9));
  EXPECT_FALSE(db.detected(DefectKind::Bridge, cat, 90e3, 1.78, 25e-9));
}

TEST(DetectabilityDb, UnknownClassThrows) {
  const DetectabilityDb db = synthetic_db();
  EXPECT_THROW(db.detected(DefectKind::Open,
                           static_cast<int>(OpenCategory::Wordline), 1e6, 1.8,
                           25e-9),
               Error);
}

TEST(DetectabilityDb, DefectOverloadUsesCategories) {
  const DetectabilityDb db = synthetic_db();
  Defect d;
  d.kind = DefectKind::Bridge;
  d.bridge_category = BridgeCategory::CellTrueFalse;
  d.resistance = 90e3;
  EXPECT_TRUE(db.detected(d, {1.0, 100e-9}));
  EXPECT_FALSE(db.detected(d, {1.8, 25e-9}));
}

TEST(DetectabilityDb, VbdAxisSeparatesEntries) {
  const int cat = static_cast<int>(BridgeCategory::CellGateOxide);
  const DetectabilityDb db(
      {entry(DefectKind::Bridge, cat, 5e3, 1.95, 25e-9, true, 1.85),
       entry(DefectKind::Bridge, cat, 5e3, 1.95, 25e-9, false, 2.4)});
  EXPECT_TRUE(db.detected(DefectKind::Bridge, cat, 5e3, 1.95, 25e-9, 1.9));
  EXPECT_FALSE(db.detected(DefectKind::Bridge, cat, 5e3, 1.95, 25e-9, 2.5));
}

TEST(DetectabilityDb, ConditionsEnumerated) {
  const DetectabilityDb db = synthetic_db();
  EXPECT_EQ(db.conditions().size(), 12u);
}

TEST(DetectabilityDb, CsvRoundTrip) {
  const DetectabilityDb db = synthetic_db();
  const DetectabilityDb loaded = DetectabilityDb::from_csv(db.to_csv());
  ASSERT_EQ(loaded.size(), db.size());
  const int cat = static_cast<int>(BridgeCategory::CellTrueFalse);
  EXPECT_TRUE(loaded.detected(DefectKind::Bridge, cat, 90e3, 1.0, 100e-9));
  EXPECT_FALSE(loaded.detected(DefectKind::Bridge, cat, 90e3, 1.8, 25e-9));
}

TEST(DetectabilityDb, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/memstress_db_test.csv";
  synthetic_db().save(path);
  const DetectabilityDb loaded = DetectabilityDb::load(path);
  EXPECT_EQ(loaded.size(), synthetic_db().size());
  std::remove(path.c_str());
}

TEST(DetectabilityDb, BadCsvRejected) {
  EXPECT_THROW(DetectabilityDb::from_csv("wrong,header\n1,2\n"), Error);
  EXPECT_THROW(DetectabilityDb::load("/no/such/file.csv"), Error);
}

TEST(CornerOutcomes, ClassifiesVlvOnlyDefect) {
  const DetectabilityDb db = synthetic_db();
  Defect d;
  d.kind = DefectKind::Bridge;
  d.bridge_category = BridgeCategory::CellTrueFalse;
  d.resistance = 90e3;
  const CornerOutcomes out = corner_outcomes(db, d);
  EXPECT_TRUE(out.vlv);
  EXPECT_FALSE(out.vmin);
  EXPECT_FALSE(out.vnom);
  EXPECT_FALSE(out.vmax);
  EXPECT_FALSE(out.at_speed);
  EXPECT_FALSE(out.standard());
  EXPECT_TRUE(out.any());
}

TEST(CornerOutcomes, ClassifiesVmaxOnlyDefect) {
  const DetectabilityDb db = synthetic_db();
  Defect d;
  d.kind = DefectKind::Open;
  d.open_category = OpenCategory::CellAccess;
  d.resistance = 30e3;
  const CornerOutcomes out = corner_outcomes(db, d);
  EXPECT_FALSE(out.vlv);
  EXPECT_TRUE(out.vmax);
  // Vmax is a stress screen, not part of the standard (Vmin/Vnom) test.
  EXPECT_FALSE(out.standard());
  EXPECT_TRUE(out.any());
}

TEST(CornerOutcomes, AllClearForDetectedNowhere) {
  std::vector<DbEntry> entries;
  const int cat = static_cast<int>(BridgeCategory::CellNodeVdd);
  for (const double vdd : {1.0, 1.65, 1.8, 1.95})
    for (const double period : {100e-9, 25e-9, 15e-9})
      entries.push_back(
          entry(DefectKind::Bridge, cat, 1e6, vdd, period, false));
  const DetectabilityDb db(std::move(entries));
  Defect d;
  d.kind = DefectKind::Bridge;
  d.bridge_category = BridgeCategory::CellNodeVdd;
  d.resistance = 1e6;
  EXPECT_FALSE(corner_outcomes(db, d).any());
}

}  // namespace
}  // namespace memstress::estimator
