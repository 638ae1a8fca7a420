// Cross-technology determinism matrix: for every TechnologyModel backend,
// the characterization CSV must be byte-identical at any thread count and in
// any solver mode, the spec fingerprint must key on the technology (so a
// cache from one backend can never satisfy another's spec), and the
// undervolt grid must mirror the SRAM-6T one row for row.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analog/batch.hpp"
#include "estimator/detectability.hpp"
#include "tech/model.hpp"
#include "util/error.hpp"

namespace memstress::estimator {
namespace {

/// Tiny but non-trivial base grid: two supplies so detectability actually
/// varies, one period, one resistance per defect family. Small enough that
/// the analog backend stays sub-second.
CharacterizeSpec tiny_spec(tech::Technology technology) {
  CharacterizeSpec spec = tech::default_characterize_spec(technology);
  spec.block.rows = 2;
  spec.block.cols = 1;
  spec.vdds = {1.0, 1.8};
  spec.periods = {100e-9};
  spec.bridge_resistances = {1e3};
  spec.open_resistances = {1e6};
  spec.gox_vbds = {1.7};
  if (technology == tech::Technology::SttMram)
    spec.mtj.resistances = {1.0e3, 3.2e3, 1.2e4};
  spec.threads = 1;
  return spec;
}

TEST(TechMatrix, CsvIsByteIdenticalAtAnyThreadCount) {
  for (const auto technology :
       {tech::Technology::Sram6T, tech::Technology::SttMram,
        tech::Technology::Undervolt}) {
    CharacterizeSpec spec = tiny_spec(technology);
    const std::string baseline = characterize(spec).to_csv();
    for (const int threads : {2, 8}) {
      spec.threads = threads;
      EXPECT_EQ(characterize(spec).to_csv(), baseline)
          << tech::technology_name(technology) << " at threads=" << threads;
    }
  }
}

TEST(TechMatrix, CsvIsIdenticalInEverySolverMode) {
  // The solver mode is an analog-backend execution knob; the closed-form
  // backends must ignore it entirely and the analog one must produce the
  // same verdicts in every mode.
  for (const auto technology :
       {tech::Technology::Sram6T, tech::Technology::SttMram,
        tech::Technology::Undervolt}) {
    CharacterizeSpec spec = tiny_spec(technology);
    spec.solver = analog::SolverMode::Exact;
    const std::string baseline = characterize(spec).to_csv();
    spec.solver = analog::SolverMode::Batched;
    EXPECT_EQ(characterize(spec).to_csv(), baseline)
        << tech::technology_name(technology);
  }
}

TEST(TechMatrix, FingerprintKeysOnTheTechnology) {
  // Same axes, same test, same block — only the backend differs. Every
  // pairing must fingerprint differently or a cross-technology cache hit
  // becomes possible.
  const std::string sram = spec_fingerprint(tiny_spec(tech::Technology::Sram6T));
  CharacterizeSpec stt_as_sram = tiny_spec(tech::Technology::Sram6T);
  stt_as_sram.technology = tech::Technology::SttMram;
  CharacterizeSpec uv_as_sram = tiny_spec(tech::Technology::Sram6T);
  uv_as_sram.technology = tech::Technology::Undervolt;
  const std::string stt = spec_fingerprint(stt_as_sram);
  const std::string uv = spec_fingerprint(uv_as_sram);
  EXPECT_NE(sram, stt);
  EXPECT_NE(sram, uv);
  EXPECT_NE(stt, uv);
}

TEST(TechMatrix, FingerprintKeysOnTheBackendParameterPacks) {
  const CharacterizeSpec base = tiny_spec(tech::Technology::SttMram);
  CharacterizeSpec tweaked = base;
  tweaked.mtj.delta_nominal = 55.0;
  EXPECT_NE(spec_fingerprint(base), spec_fingerprint(tweaked));

  const CharacterizeSpec uv_base = tiny_spec(tech::Technology::Undervolt);
  CharacterizeSpec uv_tweaked = uv_base;
  uv_tweaked.undervolt.v_cliff = 0.6;
  EXPECT_NE(spec_fingerprint(uv_base), spec_fingerprint(uv_tweaked));

  // The packs only participate for their own technology: a sram6t spec
  // fingerprints the same whatever the dormant MTJ pack holds.
  const CharacterizeSpec sram_base = tiny_spec(tech::Technology::Sram6T);
  CharacterizeSpec sram_tweaked = sram_base;
  sram_tweaked.mtj.delta_nominal = 55.0;
  sram_tweaked.undervolt.v_cliff = 0.6;
  EXPECT_EQ(spec_fingerprint(sram_base), spec_fingerprint(sram_tweaked));
}

TEST(TechMatrix, CsvRoundTripPreservesTechnologyAndFingerprint) {
  for (const auto technology :
       {tech::Technology::Sram6T, tech::Technology::SttMram,
        tech::Technology::Undervolt}) {
    const CharacterizeSpec spec = tiny_spec(technology);
    const DetectabilityDb db = characterize(spec);
    EXPECT_EQ(db.technology(), technology);
    EXPECT_EQ(db.fingerprint(), spec_fingerprint(spec));
    const DetectabilityDb reloaded =
        DetectabilityDb::from_csv(db.to_csv(), spec_fingerprint(spec));
    EXPECT_EQ(reloaded.technology(), technology);
    EXPECT_EQ(reloaded.fingerprint(), db.fingerprint());
    EXPECT_EQ(reloaded.to_csv(), db.to_csv());
  }
}

TEST(TechMatrix, CrossTechnologyCacheIsRejected) {
  // The stale-cache guard in one step: a CSV cached by the stt_mram backend
  // must never satisfy a pipeline expecting the sram6t or undervolt
  // fingerprint of the *same* axes.
  const DetectabilityDb stt_db =
      characterize(tiny_spec(tech::Technology::SttMram));
  const std::string csv = stt_db.to_csv();
  for (const auto other :
       {tech::Technology::Sram6T, tech::Technology::Undervolt}) {
    CharacterizeSpec foreign = tiny_spec(tech::Technology::SttMram);
    foreign.technology = other;
    EXPECT_THROW(DetectabilityDb::from_csv(csv, spec_fingerprint(foreign)),
                 Error)
        << tech::technology_name(other);
  }
}

TEST(TechMatrix, UndervoltGridMirrorsTheSramGrid) {
  // The undervolt campaign injects faults over the exact SRAM-6T defect
  // population so its escapes are row-for-row comparable to the analog run.
  CharacterizeSpec sram = tiny_spec(tech::Technology::Sram6T);
  CharacterizeSpec uv = sram;
  uv.technology = tech::Technology::Undervolt;
  const std::vector<GridPoint> a = characterize_grid(sram);
  const std::vector<GridPoint> b = characterize_grid(uv);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].defect.tag(), b[i].defect.tag());
    EXPECT_EQ(a[i].entry.kind, b[i].entry.kind);
    EXPECT_EQ(a[i].entry.category, b[i].entry.category);
    EXPECT_EQ(a[i].entry.resistance, b[i].entry.resistance);
    EXPECT_EQ(a[i].entry.vdd, b[i].entry.vdd);
    EXPECT_EQ(a[i].entry.period, b[i].entry.period);
  }
}

TEST(TechMatrix, SttGridCoversEveryCategoryResistanceAndCorner) {
  const CharacterizeSpec spec = tiny_spec(tech::Technology::SttMram);
  const std::vector<GridPoint> grid = characterize_grid(spec);
  // 3 fault categories x 3 resistances x 2 vdds x 1 period.
  EXPECT_EQ(grid.size(), 3u * 3u * 2u * 1u);
  for (const GridPoint& point : grid)
    EXPECT_EQ(point.entry.kind, defects::DefectKind::Mtj);
}

}  // namespace
}  // namespace memstress::estimator
