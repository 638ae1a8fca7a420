// characterize_grid()/characterize_range(): the worker half of the
// distributed coordinator. The contract pinned here is that any shard
// split of the canonical grid merges back to the exact bytes of a
// single-node characterize() — shard boundaries are invisible.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "estimator/detectability.hpp"
#include "march/library.hpp"
#include "util/error.hpp"

namespace memstress::estimator {
namespace {

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
  spec.threads = 1;
  return spec;
}

/// Merge per-shard verdicts over the enumerated grid the way the
/// coordinator does (ASSERTs, so callers must be the test body's scope).
void merge(const CharacterizeSpec& spec, const std::vector<GridPoint>& grid,
           const std::vector<PointVerdict>& verdicts, DetectabilityDb& db) {
  std::vector<int> detected(grid.size(), -1);
  for (const PointVerdict& v : verdicts) {
    ASSERT_FALSE(v.quarantined) << "tiny grid must simulate cleanly";
    detected[v.index] = v.detected ? 1 : 0;
  }
  std::vector<DbEntry> entries;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    ASSERT_GE(detected[i], 0) << "grid point " << i << " never resolved";
    DbEntry entry = grid[i].entry;
    entry.detected = detected[i] == 1;
    entries.push_back(entry);
  }
  db = DetectabilityDb(std::move(entries), {}, spec_fingerprint(spec));
}

TEST(CharacterizeRange, ShardSplitsMergeToTheSingleNodeBytes) {
  const CharacterizeSpec spec = tiny_spec();
  const std::string full_csv = characterize(spec).to_csv();
  const std::vector<GridPoint> grid = characterize_grid(spec);
  ASSERT_GT(grid.size(), 4u);

  for (const std::size_t shard : {std::size_t{1}, std::size_t{3},
                                  grid.size()}) {
    std::vector<PointVerdict> verdicts;
    for (std::size_t begin = 0; begin < grid.size(); begin += shard) {
      const std::size_t end = std::min(grid.size(), begin + shard);
      const std::vector<PointVerdict> part =
          characterize_range(spec, begin, end);
      EXPECT_EQ(part.size(), end - begin);
      verdicts.insert(verdicts.end(), part.begin(), part.end());
    }
    DetectabilityDb db;
    merge(spec, grid, verdicts, db);
    EXPECT_EQ(db.to_csv(), full_csv)
        << "shard size " << shard << " changed the merged bytes";
  }
}

TEST(CharacterizeRange, GridEnumerationMatchesTheDatabaseOrder) {
  const CharacterizeSpec spec = tiny_spec();
  const DetectabilityDb db = characterize(spec);
  const std::vector<GridPoint> grid = characterize_grid(spec);
  ASSERT_EQ(grid.size(), db.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(grid[i].entry.kind, db.entries()[i].kind);
    EXPECT_EQ(grid[i].entry.category, db.entries()[i].category);
    EXPECT_EQ(grid[i].entry.resistance, db.entries()[i].resistance);
    EXPECT_EQ(grid[i].entry.vdd, db.entries()[i].vdd);
    EXPECT_EQ(grid[i].entry.period, db.entries()[i].period);
    EXPECT_FALSE(grid[i].defect.tag().empty());
  }
}

TEST(CharacterizeRange, RejectsBadBounds) {
  const CharacterizeSpec spec = tiny_spec();
  const std::size_t points = characterize_grid(spec).size();
  EXPECT_THROW(characterize_range(spec, 2, 1), Error);
  EXPECT_THROW(characterize_range(spec, 0, points + 1), Error);
}

}  // namespace
}  // namespace memstress::estimator
