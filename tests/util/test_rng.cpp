#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/error.hpp"

namespace memstress {
namespace {

/// Rng::poisson as it was before PoissonDraw existed, kept as the
/// reference the shared implementation must match draw for draw.
unsigned reference_poisson(Rng& rng, double mean) {
  require(mean >= 0.0, "reference: negative mean");
  if (mean == 0.0) return 0;
  if (mean > 64.0) {
    const double draw = rng.normal(mean, std::sqrt(mean));
    if (draw <= 0.0) return 0u;
    require(draw + 0.5 < 4294967296.0, "reference: count past unsigned");
    return static_cast<unsigned>(draw + 0.5);
  }
  const double threshold = std::exp(-mean);
  unsigned count = 0;
  double product = rng.uniform();
  while (product > threshold) {
    ++count;
    product *= rng.uniform();
  }
  return count;
}

TEST(Rng, IsDeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformStaysInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    ASSERT_GE(u, -3.0);
    ASSERT_LT(u, 5.0);
  }
}

TEST(Rng, UniformMeanIsCentered) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, LogUniformCoversDecadesEvenly) {
  Rng rng(3);
  // Count samples per decade over [1, 1e4): should be ~25% each.
  std::vector<int> decade_count(4, 0);
  const int n = 40000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.log_uniform(1.0, 1e4);
    ASSERT_GE(v, 1.0);
    ASSERT_LT(v, 1e4);
    ++decade_count[static_cast<int>(std::log10(v))];
  }
  for (int d = 0; d < 4; ++d)
    EXPECT_NEAR(decade_count[d] / static_cast<double>(n), 0.25, 0.02) << "decade " << d;
}

TEST(Rng, LogUniformRejectsBadRange) {
  Rng rng(3);
  EXPECT_THROW(rng.log_uniform(0.0, 1.0), Error);
  EXPECT_THROW(rng.log_uniform(2.0, 1.0), Error);
}

TEST(Rng, NormalMomentsAreSane) {
  Rng rng(13);
  const int n = 100000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, NormalScalesByMeanAndStddev) {
  Rng rng(14);
  const int n = 50000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(Rng, BelowIsUnbiasedOverSmallRange) {
  Rng rng(5);
  std::vector<int> count(5, 0);
  const int n = 50000;
  for (int i = 0; i < n; ++i) ++count[rng.below(5)];
  for (int c : count) EXPECT_NEAR(c / static_cast<double>(n), 0.2, 0.02);
}

TEST(Rng, BelowRejectsZero) {
  Rng rng(5);
  EXPECT_THROW(rng.below(0), Error);
}

TEST(Rng, PoissonMatchesMeanSmall) {
  Rng rng(17);
  const int n = 50000;
  long total = 0;
  for (int i = 0; i < n; ++i) total += rng.poisson(2.5);
  EXPECT_NEAR(total / static_cast<double>(n), 2.5, 0.05);
}

TEST(Rng, PoissonMatchesMeanLarge) {
  Rng rng(18);
  const int n = 20000;
  long total = 0;
  for (int i = 0; i < n; ++i) total += rng.poisson(200.0);
  EXPECT_NEAR(total / static_cast<double>(n), 200.0, 1.0);
}

TEST(Rng, PoissonZeroMeanIsAlwaysZero) {
  Rng rng(19);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.poisson(0.0), 0u);
}

TEST(Rng, PoissonThrowsForADrawPastUnsigned) {
  // A draw past 2^32 once went through an undefined cast to unsigned; a
  // served study with 1e300 um^2 per cell came back defect-free.
  Rng rng(20);
  for (const double mean : {8.4e298, 1e12, 4.5e9,
                            std::numeric_limits<double>::infinity()})
    EXPECT_THROW(rng.poisson(mean), Error) << mean;
  // The largest means that fit still draw.
  EXPECT_NEAR(rng.poisson(1e9), 1e9, 1e6);
}

TEST(Rng, WeightedIndexFollowsWeights) {
  Rng rng(23);
  const std::vector<double> weights{1.0, 3.0, 6.0};
  std::vector<int> count(3, 0);
  const int n = 60000;
  for (int i = 0; i < n; ++i) ++count[rng.weighted_index(weights)];
  EXPECT_NEAR(count[0] / static_cast<double>(n), 0.1, 0.01);
  EXPECT_NEAR(count[1] / static_cast<double>(n), 0.3, 0.015);
  EXPECT_NEAR(count[2] / static_cast<double>(n), 0.6, 0.015);
}

TEST(Rng, WeightedIndexSkipsZeroWeights) {
  Rng rng(29);
  const std::vector<double> weights{0.0, 1.0, 0.0};
  for (int i = 0; i < 200; ++i) EXPECT_EQ(rng.weighted_index(weights), 1u);
}

TEST(Rng, WeightedIndexRejectsDegenerateInput) {
  Rng rng(29);
  EXPECT_THROW(rng.weighted_index({}), Error);
  EXPECT_THROW(rng.weighted_index({0.0, 0.0}), Error);
  EXPECT_THROW(rng.weighted_index({1.0, -1.0}), Error);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(31);
  Rng child = parent.split();
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (parent() == child()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Rng, DiscardEqualsThatManyDraws) {
  for (const std::uint64_t n :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{1000},
        (std::uint64_t{1} << 20) + 3}) {
    Rng drawn(43), skipped(43);
    for (std::uint64_t i = 0; i < n; ++i) drawn();
    skipped.discard(n);
    for (int i = 0; i < 4; ++i) EXPECT_EQ(skipped(), drawn()) << "n=" << n;
  }
}

TEST(Rng, PoissonDrawMatchesTheReferenceDrawForDraw) {
  // Every mean class: zero, Knuth's loop (tiny, study-sized, several draws,
  // its 64 edge), the normal approximation, and means whose every draw
  // throws. Rng::poisson and one PoissonDraw must return (or throw) what
  // the reference does and leave the stream where it leaves it.
  const double inf = std::numeric_limits<double>::infinity();
  for (const double mean : {0.0, 1e-3, 0.37, 5.0, 64.0, 64.5, 1e9, 1e12, inf}) {
    Rng reference(41), plain(41), drawn(41);
    const PoissonDraw draw(mean);
    for (int i = 0; i < 2000; ++i) {
      bool threw = false;
      unsigned expected = 0;
      try {
        expected = reference_poisson(reference, mean);
      } catch (const Error&) {
        threw = true;
      }
      if (threw) {
        ASSERT_THROW(plain.poisson(mean), Error) << mean << " draw " << i;
        ASSERT_THROW(draw(drawn), Error) << mean << " draw " << i;
      } else {
        ASSERT_EQ(plain.poisson(mean), expected) << mean << " draw " << i;
        ASSERT_EQ(draw(drawn), expected) << mean << " draw " << i;
      }
    }
    const std::uint64_t next = reference();
    EXPECT_EQ(plain(), next) << mean;
    EXPECT_EQ(drawn(), next) << mean;
  }
  for (const double mean : {-1.0, std::nan("")}) {
    Rng rng(41);
    EXPECT_THROW(rng.poisson(mean), Error) << mean;
    EXPECT_THROW(PoissonDraw{mean}, Error) << mean;
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng(37);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

}  // namespace
}  // namespace memstress
