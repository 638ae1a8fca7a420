#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <string>

#include "estimator/detectability.hpp"
#include "util/error.hpp"

namespace memstress::estimator {
namespace {

using defects::DefectKind;

/// A random but syntactically valid database: arbitrary categories,
/// resistances spanning many decades, stress points on and off the paper's
/// grid. Seeded, so failures reproduce.
DetectabilityDb random_db(unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> category(0, 6);
  std::uniform_int_distribution<int> coin(0, 1);
  std::uniform_real_distribution<double> log_r(1.0, 8.0);
  std::uniform_real_distribution<double> vdd(0.5, 2.5);
  std::uniform_real_distribution<double> vbd(0.0, 3.0);
  std::uniform_real_distribution<double> log_t(-9.0, -6.0);
  std::uniform_int_distribution<std::size_t> count(1, 60);

  std::vector<DbEntry> entries;
  const std::size_t n = count(rng);
  for (std::size_t i = 0; i < n; ++i) {
    DbEntry e;
    e.kind = coin(rng) ? DefectKind::Bridge : DefectKind::Open;
    e.category = category(rng);
    e.resistance = std::pow(10.0, log_r(rng));
    e.vbd = coin(rng) ? vbd(rng) : 0.0;
    e.vdd = vdd(rng);
    e.period = std::pow(10.0, log_t(rng));
    e.detected = coin(rng) != 0;
    entries.push_back(e);
  }
  return DetectabilityDb(std::move(entries));
}

/// Expects from_csv to throw an Error whose message names the database, so
/// a user staring at a broken cache file knows which component rejected it.
void expect_rejected(const std::string& csv, const char* why) {
  try {
    DetectabilityDb::from_csv(csv);
    FAIL() << "malformed CSV accepted: " << why;
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("DetectabilityDb"), std::string::npos)
        << why << ": " << e.what();
  }
}

TEST(DetectabilityFuzz, SaveLoadSaveIsByteIdentical) {
  for (unsigned seed = 1; seed <= 10; ++seed) {
    const DetectabilityDb original = random_db(seed);
    const std::string csv1 = original.to_csv();
    const DetectabilityDb reloaded = DetectabilityDb::from_csv(csv1);
    ASSERT_EQ(reloaded.size(), original.size()) << "seed " << seed;
    const std::string csv2 = reloaded.to_csv();
    EXPECT_EQ(csv1, csv2) << "seed " << seed;
  }
}

TEST(DetectabilityFuzz, ReloadedDbAnswersLookupsIdentically) {
  const DetectabilityDb original = random_db(99);
  const DetectabilityDb reloaded =
      DetectabilityDb::from_csv(original.to_csv());
  std::mt19937 rng(7);
  std::uniform_real_distribution<double> log_r(1.0, 8.0);
  std::uniform_real_distribution<double> vdd(0.5, 2.5);
  std::uniform_real_distribution<double> log_t(-9.0, -6.0);
  for (const auto& e : original.entries()) {
    for (int probe = 0; probe < 4; ++probe) {
      const double r = std::pow(10.0, log_r(rng));
      const double v = vdd(rng);
      const double t = std::pow(10.0, log_t(rng));
      EXPECT_EQ(original.detected(e.kind, e.category, r, v, t, e.vbd),
                reloaded.detected(e.kind, e.category, r, v, t, e.vbd));
    }
  }
}

TEST(DetectabilityFuzz, RejectsWrongHeader) {
  expect_rejected("kind,category,resistance\nbridge,0,100\n", "short header");
  expect_rejected(
      "kind,category,resistance,vbd,vdd,period,DETECTED\n", "renamed column");
  // A zero-byte cache is rejected one layer down, by the CSV parser itself.
  EXPECT_THROW(DetectabilityDb::from_csv(""), Error);
}

TEST(DetectabilityFuzz, RejectsTruncatedRow) {
  const std::string header =
      "kind,category,resistance,vbd,vdd,period,detected\n";
  expect_rejected(header + "bridge,0,100,0,1.8\n", "row cut short");
  // Byte-level truncation of a previously valid save (power loss mid-write).
  const std::string good = random_db(3).to_csv();
  expect_rejected(good.substr(0, good.size() - 4), "truncated tail");
}

TEST(DetectabilityFuzz, RejectsGarbageFields) {
  const std::string header =
      "kind,category,resistance,vbd,vdd,period,detected\n";
  expect_rejected(header + "bridge,zero,100,0,1.8,25e-9,1\n", "bad category");
  expect_rejected(header + "bridge,0,lots,0,1.8,25e-9,1\n", "bad resistance");
  expect_rejected(header + "bridge,0,100,0,1.8v,25e-9,1\n", "trailing junk");
  expect_rejected(header + "bridge,0,100,0,1.8,25e-9,yes\n", "bad detected");
  expect_rejected(header + "short,0,100,0,1.8,25e-9,1\n", "unknown kind");
}

TEST(DetectabilityFuzz, ErrorMessagesNameTheRow) {
  const std::string header =
      "kind,category,resistance,vbd,vdd,period,detected\n";
  const std::string csv = header + "bridge,0,100,0,1.8,25e-9,1\n" +
                          "open,1,nan-sense,0,1.8,25e-9,0\n";
  try {
    DetectabilityDb::from_csv(csv);
    FAIL() << "garbage row accepted";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("row 2"), std::string::npos) << what;
    EXPECT_NE(what.find("nan-sense"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace memstress::estimator
