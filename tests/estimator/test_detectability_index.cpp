// The indexed nearest-neighbour lookup must be observably identical to the
// linear scan it replaced — same winner, same tie-breaks, bit for bit. These
// tests keep a verbatim copy of the old O(entries) reference scan and fuzz
// the index against it.
#include "estimator/detectability.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <thread>
#include <vector>

#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

namespace memstress::estimator {
namespace {

using defects::DefectKind;

/// The pre-index linear scan, kept as the behavioural reference.
bool reference_detected(const DetectabilityDb& db, DefectKind kind,
                        int category, double resistance, double vdd,
                        double period, double vbd = 0.0) {
  const DbEntry* best = nullptr;
  double best_cost = std::numeric_limits<double>::infinity();
  const double log_r = std::log(resistance);
  for (const auto& e : db.entries()) {
    if (e.kind != kind || e.category != category) continue;
    const double dv = (e.vdd - vdd) / 0.05;
    const double dt = (std::log(e.period) - std::log(period)) / 0.05;
    const double dr = std::log(e.resistance) - log_r;
    const double db_ = (e.vbd - vbd) * 10.0;
    const double cost = (dv * dv + dt * dt) * 1e6 + dr * dr + db_ * db_;
    if (cost < best_cost) {
      best_cost = cost;
      best = &e;
    }
  }
  require(best != nullptr, "reference: no entries for this defect class");
  return best->detected;
}

const double kVdds[] = {1.0, 1.65, 1.8, 1.95};
/// Conditions 1 mV apart: a group's isolation (400 at 1 mV) is then below
/// most in-group costs, so exact-condition queries fall through to the walk.
const double kCloseVdds[] = {1.8, 1.801, 1.802, 1.803};
const double kPeriods[] = {100e-9, 25e-9, 15e-9};

DetectabilityDb random_db(Rng& rng, int entry_count,
                          const double (&vdds)[4] = kVdds) {
  std::vector<DbEntry> entries;
  for (int i = 0; i < entry_count; ++i) {
    DbEntry e;
    e.kind = rng.chance(0.5) ? DefectKind::Bridge : DefectKind::Open;
    e.category = static_cast<int>(rng.below(5));
    e.resistance = rng.log_uniform(10.0, 1e8);
    e.vbd = rng.chance(0.3) ? rng.uniform(0.8, 2.6) : 0.0;
    e.vdd = vdds[rng.below(4)];
    e.period = kPeriods[rng.below(3)];
    e.detected = rng.chance(0.5);
    entries.push_back(e);
  }
  return DetectabilityDb(std::move(entries));
}

TEST(DetectabilityIndex, RandomizedQueriesMatchLinearReference) {
  Rng rng(42);
  for (int round = 0; round < 20; ++round) {
    const DetectabilityDb db = random_db(rng, 200);
    for (int q = 0; q < 200; ++q) {
      const DefectKind kind =
          rng.chance(0.5) ? DefectKind::Bridge : DefectKind::Open;
      const int category = static_cast<int>(rng.below(5));
      const double r = rng.log_uniform(10.0, 1e8);
      // Mix on-grid and off-grid query conditions.
      const double vdd = rng.chance(0.5) ? 1.8 : rng.uniform(0.9, 2.0);
      const double period =
          rng.chance(0.5) ? 25e-9 : rng.log_uniform(10e-9, 200e-9);
      const double vbd = rng.chance(0.3) ? rng.uniform(0.0, 2.6) : 0.0;

      bool reference_threw = false;
      bool reference_result = false;
      try {
        reference_result =
            reference_detected(db, kind, category, r, vdd, period, vbd);
      } catch (const Error&) {
        reference_threw = true;
      }
      if (reference_threw) {
        EXPECT_THROW(db.detected(kind, category, r, vdd, period, vbd), Error);
      } else {
        EXPECT_EQ(db.detected(kind, category, r, vdd, period, vbd),
                  reference_result)
            << "round=" << round << " q=" << q;
      }
    }
  }
}

TEST(DetectabilityIndex, DuplicateCostEntriesKeepFirstEntryTieBreak) {
  // Two entries at the same grid point with contradictory verdicts: the
  // linear scan keeps the first, so the index must too.
  DbEntry e;
  e.kind = DefectKind::Bridge;
  e.category = 1;
  e.resistance = 1e4;
  e.vdd = 1.8;
  e.period = 25e-9;
  e.detected = true;
  DbEntry contradiction = e;
  contradiction.detected = false;
  const DetectabilityDb db({e, contradiction});
  EXPECT_TRUE(db.detected(DefectKind::Bridge, 1, 1e4, 1.8, 25e-9));
  EXPECT_EQ(db.detected(DefectKind::Bridge, 1, 1e4, 1.8, 25e-9),
            reference_detected(db, DefectKind::Bridge, 1, 1e4, 1.8, 25e-9));
}

TEST(DetectabilityIndex, InfiniteCostsThrowLikeTheLinearScan) {
  // log(0) and log(inf) put every entry at an infinite cost. The linear
  // scan picks no entry and throws; the index must not answer with the
  // first entry instead, on the entry's own condition or off it.
  DbEntry e;
  e.kind = DefectKind::Bridge;
  e.category = 1;
  e.resistance = 1e4;
  e.vdd = 1.8;
  e.period = 25e-9;
  e.detected = true;
  DbEntry other = e;
  other.vdd = 1.65;
  other.detected = false;
  const DetectabilityDb db({e, other});
  const double inf = std::numeric_limits<double>::infinity();
  for (const double r : {0.0, inf}) {
    for (const double vdd : {1.8, 1.7}) {
      EXPECT_THROW(reference_detected(db, DefectKind::Bridge, 1, r, vdd, 25e-9),
                   Error);
      EXPECT_THROW(db.detected(DefectKind::Bridge, 1, r, vdd, 25e-9), Error)
          << "r=" << r << " vdd=" << vdd;
    }
  }
  // A finite query on the same database still answers.
  EXPECT_TRUE(db.detected(DefectKind::Bridge, 1, 1e4, 1.8, 25e-9));
}

TEST(DetectabilityIndex, EquidistantGroupsKeepLowestEntryTieBreak) {
  // The 2.5 V and 1.5 V groups sit at the same condition cost from a 2.0 V
  // query (all three values are exact in binary), and the 2.5 V group is
  // created first. Entries 1 and 2 tie on total cost, so the lowest index
  // must win even though the group holding entry 2 comes first: visiting
  // groups nearest-first must still scan a group whose condition cost
  // equals the best cost seen.
  std::vector<DbEntry> entries;
  DbEntry e;
  e.kind = DefectKind::Bridge;
  e.category = 0;
  e.period = 25e-9;
  e.vdd = 2.5;
  e.resistance = 1e6;
  e.detected = false;
  entries.push_back(e);  // entry 0: creates the 2.5 V group
  e.vdd = 1.5;
  e.resistance = 1e4;
  e.detected = true;
  entries.push_back(e);  // entry 1
  e.vdd = 2.5;
  e.detected = false;
  entries.push_back(e);  // entry 2
  const DetectabilityDb db(std::move(entries));
  EXPECT_TRUE(db.detected(DefectKind::Bridge, 0, 1e4, 2.0, 25e-9));
  EXPECT_EQ(db.detected(DefectKind::Bridge, 0, 1e4, 2.0, 25e-9),
            reference_detected(db, DefectKind::Bridge, 0, 1e4, 2.0, 25e-9));
}

defects::Defect make_defect(DefectKind kind, int category, double resistance,
                            double vbd) {
  defects::Defect defect;
  defect.kind = kind;
  defect.bridge_category = static_cast<layout::BridgeCategory>(category);
  defect.open_category = static_cast<layout::OpenCategory>(category);
  defect.resistance = resistance;
  defect.breakdown_v = vbd;
  return defect;
}

TEST(DetectabilityIndex, MaskMatchesPerConditionReference) {
  Rng rng(31);
  for (int round = 0; round < 20; ++round) {
    const DetectabilityDb db =
        random_db(rng, 200, round % 2 == 0 ? kVdds : kCloseVdds);
    for (int q = 0; q < 100; ++q) {
      const DbEntry& probe = db.entries()[rng.below(db.size())];
      const double r =
          rng.chance(0.3) ? probe.resistance : rng.log_uniform(10.0, 1e8);
      const double vbd = rng.chance(0.5) ? probe.vbd : rng.uniform(0.0, 2.6);
      const defects::Defect defect =
          make_defect(probe.kind, probe.category, r, vbd);
      // 1..16 conditions, on the grid (exact-condition path) or off it.
      std::vector<sram::StressPoint> at(1 + rng.below(16));
      for (sram::StressPoint& point : at) {
        const DbEntry& on = db.entries()[rng.below(db.size())];
        point = rng.chance(0.6) ? sram::StressPoint{on.vdd, on.period}
                                : sram::StressPoint{
                                      rng.uniform(0.9, 2.0),
                                      rng.log_uniform(10e-9, 200e-9)};
      }
      const std::uint32_t mask = db.detected_mask(defect, at);
      for (std::size_t i = 0; i < at.size(); ++i) {
        const bool expected =
            reference_detected(db, probe.kind, probe.category, r, at[i].vdd,
                               at[i].period, vbd);
        EXPECT_EQ(((mask >> i) & 1) != 0, expected)
            << "round=" << round << " q=" << q << " condition " << i;
        EXPECT_EQ(db.detected(defect, at[i]), expected);
      }
      EXPECT_EQ(mask >> at.size(), 0u);
    }
  }
}

TEST(DetectabilityIndex, MaskCountsOneLookupPerCondition) {
  const bool ambient = metrics::enabled();
  metrics::set_enabled(true);
  metrics::Counter& lookups = metrics::counter("estimator.db_lookups");
  Rng rng(5);
  const DetectabilityDb db = random_db(rng, 100);
  const DbEntry& probe = db.entries()[0];
  const defects::Defect defect =
      make_defect(probe.kind, probe.category, probe.resistance, probe.vbd);
  const std::vector<sram::StressPoint> at(7, {probe.vdd, probe.period});
  const long long before = lookups.value();
  (void)db.detected_mask(defect, at);
  EXPECT_EQ(lookups.value() - before, 7);
  EXPECT_THROW(
      db.detected_mask(defect, std::vector<sram::StressPoint>(33, at[0])),
      Error);
  metrics::set_enabled(ambient);
}

/// Two groups 2^-10 V (about 1 mV) apart at one period, entries at one
/// resistance: a query on the 1.5 V group costs an entry there exactly
/// (10 x vbd)^2, and an entry of the neighbour group exactly the 1.5 V
/// group's isolation, 381.4697265625; every step of both sums is exact in
/// binary.
struct CloseGroups {
  static constexpr double kVdd = 1.5;
  static constexpr double kNeighbourVdd = 1.5 + 1.0 / 1024;
  static constexpr double kPeriod = 25e-9;
  static constexpr double kResistance = 1e4;

  static DbEntry entry(double vdd, double vbd, bool detected) {
    DbEntry e;
    e.kind = DefectKind::Bridge;
    e.category = 2;
    e.resistance = kResistance;
    e.vbd = vbd;
    e.vdd = vdd;
    e.period = kPeriod;
    e.detected = detected;
    return e;
  }
  /// The condition cost a query at kVdd computes for the neighbour group.
  static double isolation() {
    const double dv = (kNeighbourVdd - kVdd) / 0.05;
    const double dt = 0.0 / 0.05;
    return (dv * dv + dt * dt) * 1e6;
  }
  static double in_group_cost(double vbd) {
    const double db = (vbd - 0.0) * 10.0;
    return 0.0 + 0.0 * 0.0 + db * db;
  }
};

TEST(DetectabilityIndex, ExactQueryTiedAtIsolationScansTheNeighbour) {
  // The in-group best costs exactly the isolation, so the neighbour's entry
  // ties it; the neighbour's lower entry index must win, which only a scan
  // of the neighbour finds (an early exit on <= would answer false).
  const double vbd = 1.953125;  // 10 x vbd = 19.53125, squared 381.4697...
  ASSERT_EQ(CloseGroups::in_group_cost(vbd), CloseGroups::isolation());
  const DetectabilityDb db({CloseGroups::entry(CloseGroups::kNeighbourVdd, 0.0,
                                               true),  // entry 0
                            CloseGroups::entry(CloseGroups::kVdd, vbd,
                                               false)});  // entry 1
  const defects::Defect defect = make_defect(DefectKind::Bridge, 2,
                                             CloseGroups::kResistance, 0.0);
  const sram::StressPoint at{CloseGroups::kVdd, CloseGroups::kPeriod};
  EXPECT_TRUE(db.detected(defect, at));
  EXPECT_EQ(db.detected_mask(defect, std::span(&at, 1)), 1u);
  EXPECT_TRUE(reference_detected(db, DefectKind::Bridge, 2,
                                 CloseGroups::kResistance, at.vdd, at.period));
}

TEST(DetectabilityIndex, ExactQueryFartherThanIsolationTakesTheNeighbour) {
  // The in-group entry (entry 0) costs 676 at the query's own condition; the
  // neighbour group 1 mV away holds an entry at 381.47, which must win.
  const double vbd = 2.6;
  ASSERT_GT(CloseGroups::in_group_cost(vbd), CloseGroups::isolation());
  const DetectabilityDb db(
      {CloseGroups::entry(CloseGroups::kVdd, vbd, false),
       CloseGroups::entry(CloseGroups::kNeighbourVdd, 0.0, true)});
  const defects::Defect defect = make_defect(DefectKind::Bridge, 2,
                                             CloseGroups::kResistance, 0.0);
  const sram::StressPoint at{CloseGroups::kVdd, CloseGroups::kPeriod};
  EXPECT_TRUE(db.detected(defect, at));
  EXPECT_EQ(db.detected_mask(defect, std::span(&at, 1)), 1u);
  EXPECT_TRUE(reference_detected(db, DefectKind::Bridge, 2,
                                 CloseGroups::kResistance, at.vdd, at.period));
  // Alone in its bucket, the same entry answers for itself.
  const DetectabilityDb alone(
      {CloseGroups::entry(CloseGroups::kVdd, vbd, false)});
  EXPECT_FALSE(alone.detected(defect, at));
}

TEST(DetectabilityIndex, NanCostsThrowOnTheExactPathToo) {
  const DetectabilityDb db({CloseGroups::entry(CloseGroups::kVdd, 0.0, true)});
  const sram::StressPoint at{CloseGroups::kVdd, CloseGroups::kPeriod};
  EXPECT_THROW(db.detected(make_defect(DefectKind::Bridge, 2, std::nan(""),
                                       0.0),
                           at),
               Error);
  EXPECT_THROW(db.detected_mask(make_defect(DefectKind::Bridge, 2,
                                            CloseGroups::kResistance,
                                            std::nan("")),
                                std::span(&at, 1)),
               Error);
  // A condition whose cost to itself is NaN (an infinite vdd, a zero
  // period) matches no entry in the linear scan, even queried exactly.
  for (const sram::StressPoint odd :
       {sram::StressPoint{std::numeric_limits<double>::infinity(), 25e-9},
        sram::StressPoint{1.8, 0.0}}) {
    DbEntry e = CloseGroups::entry(odd.vdd, 0.0, true);
    e.period = odd.period;
    const DetectabilityDb alone({e});
    EXPECT_THROW(reference_detected(alone, DefectKind::Bridge, 2,
                                    CloseGroups::kResistance, odd.vdd,
                                    odd.period),
                 Error);
    EXPECT_THROW(alone.detected(DefectKind::Bridge, 2,
                                CloseGroups::kResistance, odd.vdd, odd.period),
                 Error);
  }
}

TEST(DetectabilityIndex, CopiesAndMovesRebuildCleanly) {
  Rng rng(7);
  DetectabilityDb original = random_db(rng, 100);
  // Query the original, then copy / move and re-query everything: the index
  // travels with each copy and move.
  (void)original.detected(original.entries()[0].kind,
                          original.entries()[0].category, 1e4, 1.8, 25e-9);
  const DetectabilityDb copy = original;
  ASSERT_EQ(copy.size(), original.size());
  for (int q = 0; q < 50; ++q) {
    const auto& probe = original.entries()[rng.below(original.size())];
    EXPECT_EQ(copy.detected(probe.kind, probe.category, probe.resistance,
                            probe.vdd, probe.period, probe.vbd),
              original.detected(probe.kind, probe.category, probe.resistance,
                                probe.vdd, probe.period, probe.vbd));
  }
  DetectabilityDb moved = std::move(original);
  EXPECT_EQ(moved.size(), copy.size());
  EXPECT_EQ(moved.detected(moved.entries()[0].kind, moved.entries()[0].category,
                           1e4, 1.8, 25e-9),
            copy.detected(copy.entries()[0].kind, copy.entries()[0].category,
                          1e4, 1.8, 25e-9));
}

TEST(DetectabilityIndex, FreshSharedDbAnswersManyThreads) {
  // Eight threads race their first lookups, single and five-corner, on one
  // const database that has never been queried: every answer must match
  // the linear reference.
  Rng rng(23);
  const DetectabilityDb db = random_db(rng, 400);
  struct Query {
    DefectKind kind;
    int category;
    double resistance, vdd, period, vbd;
  };
  std::vector<Query> queries;
  for (int q = 0; q < 400; ++q) {
    const DbEntry& probe = db.entries()[rng.below(db.size())];
    queries.push_back({probe.kind, probe.category,
                       rng.log_uniform(10.0, 1e8), rng.uniform(0.9, 2.0),
                       rng.log_uniform(10e-9, 200e-9), probe.vbd});
  }
  std::vector<bool> expected;
  for (const Query& q : queries)
    expected.push_back(reference_detected(db, q.kind, q.category, q.resistance,
                                          q.vdd, q.period, q.vbd));
  // Each query's defect also asks one mask over the five standard corners.
  const sram::StressPoint corners[] = {
      {1.0, 100e-9}, {1.65, 25e-9}, {1.8, 25e-9}, {1.95, 25e-9}, {1.8, 15e-9}};
  std::vector<std::uint32_t> expected_masks;
  for (const Query& q : queries) {
    std::uint32_t mask = 0;
    for (std::size_t c = 0; c < 5; ++c)
      if (reference_detected(db, q.kind, q.category, q.resistance,
                             corners[c].vdd, corners[c].period, q.vbd))
        mask |= std::uint32_t{1} << c;
    expected_masks.push_back(mask);
  }

  constexpr int kThreads = 8;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread starts at a different query and wraps around.
      for (std::size_t k = 0; k < queries.size(); ++k) {
        const std::size_t i = (k + 50 * t) % queries.size();
        const Query& q = queries[i];
        if (db.detected(q.kind, q.category, q.resistance, q.vdd, q.period,
                        q.vbd) != expected[i])
          ++mismatches[t];
        if (db.detected_mask(make_defect(q.kind, q.category, q.resistance,
                                         q.vbd),
                             corners) != expected_masks[i])
          ++mismatches[t];
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t)
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
}

TEST(DetectabilityIndex, ConditionsSortedAndDeduplicated) {
  Rng rng(11);
  const DetectabilityDb db = random_db(rng, 500);
  const auto conditions = db.conditions();
  EXPECT_EQ(conditions.size(), 12u);  // 4 vdds x 3 periods, all hit at n=500
  for (std::size_t i = 1; i < conditions.size(); ++i) {
    const bool ordered =
        conditions[i - 1].vdd < conditions[i].vdd ||
        (conditions[i - 1].vdd == conditions[i].vdd &&
         conditions[i - 1].period < conditions[i].period);
    EXPECT_TRUE(ordered) << "conditions() must be strictly sorted at " << i;
  }
}

}  // namespace
}  // namespace memstress::estimator
