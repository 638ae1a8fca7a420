// The characterization-fingerprint guard: a DetectabilityDb CSV cache
// carries the CRC32 of the CharacterizeSpec that produced it, and a load
// that expects a different fingerprint is rejected whole — the bug class
// where a stale or foreign cache silently serves wrong detectability data
// into every downstream coverage/DPM/schedule answer.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "core/pipeline.hpp"
#include "estimator/detectability.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"

namespace memstress::estimator {
namespace {

DetectabilityDb synthetic_db(std::string fingerprint = "",
                             std::vector<QuarantineEntry> quarantine = {}) {
  std::vector<DbEntry> entries;
  for (int i = 0; i < 4; ++i) {
    DbEntry e;
    e.kind = i % 2 == 0 ? defects::DefectKind::Bridge
                        : defects::DefectKind::Open;
    e.category = i;
    e.resistance = 1e3 * (i + 1);
    e.vdd = 1.8;
    e.period = 25e-9;
    e.detected = i % 2 == 0;
    entries.push_back(e);
  }
  return DetectabilityDb(std::move(entries), std::move(quarantine),
                         std::move(fingerprint));
}

TEST(DetectabilityFingerprint, SpecFingerprintIsDeterministic) {
  CharacterizeSpec spec;
  spec.block.rows = 2;
  spec.block.cols = 1;
  const std::string fp = spec_fingerprint(spec);
  EXPECT_EQ(fp.size(), 8u);  // 8 hex chars of CRC32
  EXPECT_EQ(spec_fingerprint(spec), fp);

  // Execution-only knobs never change the fingerprint: the produced
  // database is byte-identical at any thread/retry/checkpoint setting.
  CharacterizeSpec same = spec;
  same.threads = 7;
  same.max_attempts = 9;
  same.checkpoint_path = "/tmp/elsewhere";
  EXPECT_EQ(spec_fingerprint(same), fp);
}

TEST(DetectabilityFingerprint, SpecFingerprintSeesEveryGridAxis) {
  CharacterizeSpec base;
  base.block.rows = 2;
  base.block.cols = 1;
  const std::string fp = spec_fingerprint(base);

  CharacterizeSpec vdds = base;
  vdds.vdds = {1.0, 1.8};
  EXPECT_NE(spec_fingerprint(vdds), fp);

  CharacterizeSpec periods = base;
  periods.periods = {100e-9};
  EXPECT_NE(spec_fingerprint(periods), fp);

  CharacterizeSpec bridges = base;
  bridges.bridge_resistances = {1e3};
  EXPECT_NE(spec_fingerprint(bridges), fp);

  CharacterizeSpec opens = base;
  opens.open_resistances = {1e6};
  EXPECT_NE(spec_fingerprint(opens), fp);

  CharacterizeSpec vbds = base;
  vbds.gox_vbds = {1.7};
  EXPECT_NE(spec_fingerprint(vbds), fp);

  CharacterizeSpec gox = base;
  gox.gox_resistance = 7e3;
  EXPECT_NE(spec_fingerprint(gox), fp);

  CharacterizeSpec block = base;
  block.block.rows = 4;
  EXPECT_NE(spec_fingerprint(block), fp);

  CharacterizeSpec solver = base;
  solver.ate.steps_per_cycle += 32;
  EXPECT_NE(spec_fingerprint(solver), fp);
}

TEST(DetectabilityFingerprint, CsvRoundTripPreservesFingerprint) {
  const DetectabilityDb db = synthetic_db("deadbeef");
  const std::string csv = db.to_csv();
  EXPECT_EQ(csv.rfind("#fingerprint=deadbeef\n", 0), 0u)
      << "fingerprint must be the first line of the CSV";

  const DetectabilityDb loaded = DetectabilityDb::from_csv(csv);
  EXPECT_EQ(loaded.fingerprint(), "deadbeef");
  EXPECT_EQ(loaded.size(), db.size());
  // Save -> load -> save is byte-identical, fingerprint line included.
  EXPECT_EQ(loaded.to_csv(), csv);
}

TEST(DetectabilityFingerprint, EmptyFingerprintKeepsLegacyFormat) {
  const DetectabilityDb db = synthetic_db();
  const std::string csv = db.to_csv();
  EXPECT_EQ(csv.rfind("kind,", 0), 0u)
      << "no fingerprint line for a database without one";
  const DetectabilityDb loaded = DetectabilityDb::from_csv(csv);
  EXPECT_TRUE(loaded.fingerprint().empty());
  EXPECT_EQ(loaded.to_csv(), csv);
}

TEST(DetectabilityFingerprint, MismatchRejectedWithRowNumberedError) {
  const std::string csv = synthetic_db("deadbeef").to_csv();
  try {
    DetectabilityDb::from_csv(csv, "0badf00d");
    FAIL() << "expected a fingerprint-mismatch rejection";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("DetectabilityDb"), std::string::npos) << what;
    EXPECT_NE(what.find("row 1"), std::string::npos) << what;
    EXPECT_NE(what.find("mismatch"), std::string::npos) << what;
    EXPECT_NE(what.find("deadbeef"), std::string::npos) << what;
    EXPECT_NE(what.find("0badf00d"), std::string::npos) << what;
  }
}

TEST(DetectabilityFingerprint, MissingFingerprintRejectedWhenExpected) {
  const std::string legacy_csv = synthetic_db().to_csv();
  try {
    DetectabilityDb::from_csv(legacy_csv, "0badf00d");
    FAIL() << "expected a missing-fingerprint rejection";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("DetectabilityDb"), std::string::npos) << what;
    EXPECT_NE(what.find("row 1"), std::string::npos) << what;
    EXPECT_NE(what.find("missing"), std::string::npos) << what;
  }
  // Without an expectation the legacy file still loads (hand-built
  // databases and non-cache uses of from_csv are unaffected).
  EXPECT_NO_THROW(DetectabilityDb::from_csv(legacy_csv));
}

TEST(DetectabilityFingerprint, CopiesAndMovesCarryTheFingerprint) {
  const DetectabilityDb db = synthetic_db("cafef00d");

  const DetectabilityDb copied(db);
  EXPECT_EQ(copied.fingerprint(), "cafef00d");

  DetectabilityDb assigned;
  assigned = db;
  EXPECT_EQ(assigned.fingerprint(), "cafef00d");

  DetectabilityDb moved(std::move(assigned));
  EXPECT_EQ(moved.fingerprint(), "cafef00d");

  DetectabilityDb move_assigned;
  move_assigned = std::move(moved);
  EXPECT_EQ(move_assigned.fingerprint(), "cafef00d");

  QuarantineEntry q;
  q.defect_tag = "q";
  EXPECT_EQ(synthetic_db("cafef00d", {q}).with_quarantine_assumed(true)
                .fingerprint(),
            "cafef00d");
}

// ---------------------------------------------------------------------------
// Pipeline integration: share_database() must reject a tampered cache and
// fall back to re-characterizing instead of serving the wrong data.

core::PipelineConfig tiny_config(const std::string& cache_path) {
  core::PipelineConfig config;
  config.block.rows = 2;
  config.block.cols = 1;
  config.layout_rows = 4;
  config.layout_cols = 4;
  config.characterization.vdds = {1.0, 1.8};
  config.characterization.periods = {100e-9};
  config.characterization.bridge_resistances = {1e3};
  config.characterization.open_resistances = {1e6};
  config.characterization.gox_vbds = {1.7};
  config.db_cache_path = cache_path;
  return config;
}

long long counter_value(const char* name) {
  return memstress::metrics::counter(name).value();
}

TEST(DetectabilityFingerprint, StaleCacheIsRejectedAndRecharacterized) {
  const std::string cache =
      ::testing::TempDir() + "/memstress_stale_cache.csv";
  std::remove(cache.c_str());
  memstress::metrics::set_enabled(true);

  // Ground truth: a fresh characterization (which also writes the cache).
  std::string fresh_csv;
  {
    core::StressEvaluationPipeline pipeline(tiny_config(cache));
    fresh_csv = pipeline.database().to_csv();
    EXPECT_FALSE(pipeline.database().fingerprint().empty());
    ASSERT_TRUE(std::filesystem::exists(cache));
  }

  // Poison the cache: a foreign database whose entries would visibly skew
  // every answer (all escapes), stamped with a wrong fingerprint.
  synthetic_db("00000000").save(cache);
  memstress::metrics::reset();
  {
    core::StressEvaluationPipeline pipeline(tiny_config(cache));
    // Re-characterized: identical to the fresh run, not the poisoned file.
    EXPECT_EQ(pipeline.database().to_csv(), fresh_csv);
    EXPECT_EQ(counter_value("pipeline.db_cache_rejected"), 1);
    EXPECT_EQ(counter_value("pipeline.db_cache_loads"), 0)
        << "a rejected cache must not count as a load";
  }

  // The rejected file was overwritten by the re-characterization: a third
  // pipeline loads it cleanly.
  memstress::metrics::reset();
  {
    core::StressEvaluationPipeline pipeline(tiny_config(cache));
    EXPECT_EQ(pipeline.database().to_csv(), fresh_csv);
    EXPECT_EQ(counter_value("pipeline.db_cache_loads"), 1);
    EXPECT_EQ(counter_value("pipeline.db_cache_rejected"), 0);
  }
  std::remove(cache.c_str());
  memstress::metrics::reset();
  memstress::metrics::set_enabled(false);
}

TEST(DetectabilityFingerprint, LegacyCacheWithoutFingerprintIsRejected) {
  const std::string cache =
      ::testing::TempDir() + "/memstress_legacy_cache.csv";
  std::remove(cache.c_str());
  memstress::metrics::set_enabled(true);

  std::string fresh_csv;
  {
    core::StressEvaluationPipeline pipeline(tiny_config(cache));
    fresh_csv = pipeline.database().to_csv();
  }
  // Strip the fingerprint line: exactly what a pre-fingerprint cache file
  // looks like on disk.
  {
    ASSERT_EQ(fresh_csv.rfind("#fingerprint=", 0), 0u);
    const std::string legacy = fresh_csv.substr(fresh_csv.find('\n') + 1);
    std::ofstream out(cache, std::ios::binary | std::ios::trunc);
    out << legacy;
  }
  memstress::metrics::reset();
  {
    core::StressEvaluationPipeline pipeline(tiny_config(cache));
    EXPECT_EQ(pipeline.database().to_csv(), fresh_csv);
    EXPECT_EQ(counter_value("pipeline.db_cache_rejected"), 1);
    EXPECT_EQ(counter_value("pipeline.db_cache_loads"), 0);
  }
  std::remove(cache.c_str());
  memstress::metrics::reset();
  memstress::metrics::set_enabled(false);
}

}  // namespace
}  // namespace memstress::estimator
