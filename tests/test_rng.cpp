// Unit and property tests for the deterministic RNG substrate.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <vector>

#include "util/rng.hpp"

namespace megflood {
namespace {

TEST(SplitMix64, DeterministicAndDistinct) {
  SplitMix64 a(42), b(42), c(43);
  const auto x1 = a.next(), x2 = a.next();
  EXPECT_EQ(x1, b.next());
  EXPECT_EQ(x2, b.next());
  EXPECT_NE(x1, x2);
  EXPECT_NE(x1, c.next());
}

TEST(Rng, SameSeedSameStream) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDifferentStreams) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LE(same, 1);
}

TEST(Rng, ReseedRestartsStream) {
  Rng a(7);
  std::vector<std::uint64_t> first;
  for (int i = 0; i < 10; ++i) first.push_back(a());
  a.reseed(7);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a(), first[static_cast<std::size_t>(i)]);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(5);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, UniformRange) {
  Rng rng(6);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 2.0);
    ASSERT_GE(u, -3.0);
    ASSERT_LT(u, 2.0);
  }
}

TEST(Rng, UniformIntInBounds) {
  Rng rng(9);
  for (std::uint64_t bound : {1ULL, 2ULL, 7ULL, 1000ULL}) {
    for (int i = 0; i < 1000; ++i) {
      ASSERT_LT(rng.uniform_int(bound), bound);
    }
  }
}

TEST(Rng, UniformIntCoversAllValues) {
  Rng rng(10);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.uniform_int(10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, UniformIntIsRoughlyUniform) {
  Rng rng(11);
  constexpr std::uint64_t kBound = 8;
  constexpr int kDraws = 80000;
  std::vector<int> counts(kBound, 0);
  for (int i = 0; i < kDraws; ++i) ++counts[rng.uniform_int(kBound)];
  for (std::uint64_t v = 0; v < kBound; ++v) {
    EXPECT_NEAR(counts[v], kDraws / kBound, 500) << "value " << v;
  }
}

TEST(Rng, SignedUniformIntInclusive) {
  Rng rng(12);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-2, 2);
    ASSERT_GE(v, -2);
    ASSERT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 50000; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(hits / 50000.0, 0.3, 0.01);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(14);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliSamplerMatchesBernoulliAtThresholdBoundaries) {
  // The integer coin (bits >> 11) < ceil(q * 2^53) must make the float
  // coin's decision uniform() < q at every 53-bit value, so check it at
  // both ends of the range and on both sides of the threshold, for q at
  // 0, the smallest subnormal, exact multiples of 2^-53, the death rates
  // the engines use, just below 1 and 1.  The low 11 bits are ignored.
  constexpr std::uint64_t kTop = (std::uint64_t{1} << 53) - 1;
  for (const double q : {0.0, 5e-324, 0x1.0p-53, 3 * 0x1.0p-53, 0.3, 0.5,
                         1.0 - 0x1.0p-53, 1.0}) {
    const BernoulliSampler coin(q);
    const std::uint64_t t = coin.threshold();
    ASSERT_LE(t, kTop + 1) << "q = " << q;
    std::vector<std::uint64_t> values = {0, t, t + 1, kTop};
    if (t > 0) values.push_back(t - 1);
    for (const std::uint64_t value : values) {
      if (value > kTop) continue;
      for (const std::uint64_t low : {std::uint64_t{0}, std::uint64_t{0x7ff}}) {
        const std::uint64_t bits = (value << 11) | low;
        const bool want = static_cast<double>(bits >> 11) * 0x1.0p-53 < q;
        EXPECT_EQ(coin.accept(bits), want)
            << "q = " << q << " value = " << value;
      }
    }
  }
  // Exact multiples of 2^-53 pin the threshold itself: q = k * 2^-53
  // accepts exactly the values below k.
  EXPECT_EQ(BernoulliSampler(0x1.0p-53).threshold(), 1u);
  EXPECT_EQ(BernoulliSampler(3 * 0x1.0p-53).threshold(), 3u);
  EXPECT_EQ(BernoulliSampler(5e-324).threshold(), 1u);
  EXPECT_EQ(BernoulliSampler(0.0).threshold(), 0u);
  EXPECT_EQ(BernoulliSampler(1.0).threshold(), kTop + 1);
}

TEST(Rng, BernoulliSamplerMatchesBernoulliOnTheStream) {
  // Draw for draw against rng.bernoulli(q): the same coins, and the two
  // generators end in the same state.
  for (const double q : {0.0, 5e-324, 0x1.0p-53, 3 * 0x1.0p-53, 0.3, 0.5,
                         1.0 - 0x1.0p-53, 1.0}) {
    Rng a(41), b(41);
    const BernoulliSampler coin(q);
    std::size_t mismatches = 0;
    for (int i = 0; i < 1000000; ++i) mismatches += coin(a) != b.bernoulli(q);
    EXPECT_EQ(mismatches, 0u) << "q = " << q;
    EXPECT_EQ(a(), b()) << "q = " << q;
  }
}

TEST(Rng, GeometricMeanMatches) {
  Rng rng(15);
  const double p = 0.2;
  double sum = 0.0;
  constexpr int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) {
    sum += static_cast<double>(rng.geometric(p));
  }
  // Mean number of failures before success = (1-p)/p = 4.
  EXPECT_NEAR(sum / kDraws, (1.0 - p) / p, 0.1);
}

TEST(Rng, GeometricWithPOne) {
  Rng rng(16);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.geometric(1.0), 0u);
}

TEST(Rng, GeometricNearOneIsZeroOrTiny) {
  // p so close to 1 that failures are ~impossible: log1p(-p) is a large
  // negative number and the inversion must stay at 0 (never negative,
  // never saturated).
  Rng rng(17);
  const double p = 1.0 - 1e-12;
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(rng.geometric(p), 0u);
}

TEST(Rng, GeometricTinyPSaturatesToMax) {
  // For subnormal p the draw overflows double -> uint64 conversion; the
  // documented behavior is saturation to numeric_limits::max(), not the
  // historical 9e18 sentinel.  (u = 1 exactly would return 0, but its
  // probability is 2^-53; every observable draw saturates.)
  Rng rng(18);
  constexpr auto kMax = std::numeric_limits<std::uint64_t>::max();
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(rng.geometric(5e-324), kMax);
}

TEST(Rng, GeometricSmallPMeanMatches) {
  // p near 0 (but representable): the failure count is huge yet finite;
  // the empirical mean must track (1-p)/p ~ 1/p.
  Rng rng(19);
  const double p = 1e-6;
  double sum = 0.0;
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    const std::uint64_t draw = rng.geometric(p);
    ASSERT_LT(draw, std::numeric_limits<std::uint64_t>::max());
    sum += static_cast<double>(draw);
  }
  EXPECT_NEAR(sum / kDraws, (1.0 - p) / p, 0.05 / p);
}

TEST(Rng, GeometricSelectMatchesLoopAndNeverWraps) {
  // geometric_select draws through a GeometricSampler (log1p(-p) computed
  // once per call); it must visit exactly the indices, and consume
  // exactly the stream, of the historical
  // `i = g0; while (i < count) { visit; i += 1 + g; }` loop over repeated
  // rng.geometric(p) calls — without the wrap-around that loop suffers at
  // the saturated draw.  The table spans a saturating subnormal p, tiny
  // and sparse-regime p, both sides of 1/2, p just below 1 and p = 1.
  constexpr std::uint64_t kCount = 1000;
  constexpr auto kMax = std::numeric_limits<std::uint64_t>::max();
  for (const double p : {5e-324, 1e-12, 4e-6, 0.3, 0.5, 1.0 - 1e-9, 1.0}) {
    Rng a(23), b(23);
    std::vector<std::uint64_t> got, want;
    geometric_select(a, kCount, p, [&](std::uint64_t i) { got.push_back(i); });
    std::uint64_t e = b.geometric(p);
    while (e < kCount) {
      want.push_back(e);
      const std::uint64_t skip = b.geometric(p);
      if (skip >= kMax - e) break;  // the historical loop would wrap here
      e += 1 + skip;
    }
    EXPECT_EQ(got, want) << "p = " << p;
    EXPECT_EQ(a(), b()) << "p = " << p;  // streams aligned afterwards
  }

  // A saturating p selects nothing and terminates.
  Rng c(24);
  std::size_t visits = 0;
  geometric_select(c, kCount, 5e-324, [&](std::uint64_t) { ++visits; });
  EXPECT_EQ(visits, 0u);
  // p = 1 selects everything and consumes no draws.
  Rng d(25), e(25);
  visits = 0;
  geometric_select(d, kCount, 1.0, [&](std::uint64_t) { ++visits; });
  EXPECT_EQ(visits, kCount);
  EXPECT_EQ(d(), e());
}

TEST(Rng, GeometricSamplerMatchesGeometric) {
  // The hoisted sampler, rng.geometric(p) and the documented inversion
  // floor(log(u) / log1p(-p)) on u = 1 - uniform() (saturating, and 0
  // without a draw at p = 1) agree draw for draw.
  constexpr auto kMax = std::numeric_limits<std::uint64_t>::max();
  for (const double p : {5e-324, 1e-12, 4e-6, 0.3, 0.5, 1.0 - 1e-9, 1.0}) {
    Rng a(31), b(31), c(31);
    const GeometricSampler geometric(p);
    for (int i = 0; i < 2000; ++i) {
      std::uint64_t want = 0;
      if (p < 1.0) {
        const double draw =
            std::floor(std::log(1.0 - c.uniform()) / std::log1p(-p));
        want = draw >= 0.0 && draw < static_cast<double>(kMax)
                   ? static_cast<std::uint64_t>(draw)
                   : kMax;
      }
      ASSERT_EQ(geometric(a), want) << "p = " << p << " draw " << i;
      ASSERT_EQ(b.geometric(p), want) << "p = " << p << " draw " << i;
    }
    const std::uint64_t next = a();  // streams aligned afterwards
    EXPECT_EQ(b(), next) << "p = " << p;
    EXPECT_EQ(c(), next) << "p = " << p;
  }
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(20);
  Rng b = a.split();
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LE(same, 1);
}

TEST(DeriveSeeds, CountAndDeterminism) {
  const auto s1 = derive_seeds(99, 16);
  const auto s2 = derive_seeds(99, 16);
  EXPECT_EQ(s1.size(), 16u);
  EXPECT_EQ(s1, s2);
  std::set<std::uint64_t> unique(s1.begin(), s1.end());
  EXPECT_EQ(unique.size(), 16u);
}

TEST(SampleDiscrete, RespectsWeights) {
  Rng rng(21);
  const std::vector<double> weights{1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 40000; ++i) ++counts[sample_discrete(rng, weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(counts[0] / 40000.0, 0.25, 0.02);
  EXPECT_NEAR(counts[2] / 40000.0, 0.75, 0.02);
}

TEST(SampleDiscrete, SingleOutcome) {
  Rng rng(22);
  const std::vector<double> weights{0.0, 5.0};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(sample_discrete(rng, weights), 1u);
}

// Property sweep: uniform_int stays in range for many bounds.
class RngBoundsTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngBoundsTest, AlwaysBelowBound) {
  Rng rng(GetParam());
  const std::uint64_t bound = GetParam() % 97 + 1;
  for (int i = 0; i < 500; ++i) ASSERT_LT(rng.uniform_int(bound), bound);
}

INSTANTIATE_TEST_SUITE_P(ManyBounds, RngBoundsTest,
                         ::testing::Values(1, 2, 3, 5, 17, 64, 1000, 123456));

TEST(Binomial, EdgeCases) {
  Rng rng(1);
  EXPECT_EQ(rng.binomial(0, 0.5), 0u);
  EXPECT_EQ(rng.binomial(100, 0.0), 0u);
  EXPECT_EQ(rng.binomial(100, -0.5), 0u);
  EXPECT_EQ(rng.binomial(100, 1.0), 100u);
  EXPECT_EQ(rng.binomial(100, 1.5), 100u);
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t draw = rng.binomial(10, 0.3);
    EXPECT_LE(draw, 10u);
  }
}

TEST(Binomial, MeanAndVarianceMatch) {
  // Both branches of the sampler (direct successes for p <= 1/2, flipped
  // failures for p > 1/2) must land on the Binomial(n, p) moments.
  for (const double p : {0.02, 0.4, 0.6, 0.97}) {
    Rng rng(99);
    const std::uint64_t n = 400;
    const int kDraws = 4000;
    double sum = 0.0, sum_sq = 0.0;
    for (int i = 0; i < kDraws; ++i) {
      const auto draw = static_cast<double>(rng.binomial(n, p));
      sum += draw;
      sum_sq += draw * draw;
    }
    const double mean = sum / kDraws;
    const double var = sum_sq / kDraws - mean * mean;
    const double expect_mean = static_cast<double>(n) * p;
    const double expect_var = static_cast<double>(n) * p * (1.0 - p);
    // 6 standard errors of the sample mean.
    EXPECT_NEAR(mean, expect_mean,
                6.0 * std::sqrt(expect_var / kDraws) + 1e-9)
        << "p = " << p;
    EXPECT_NEAR(var, expect_var, 0.15 * expect_var + 0.5) << "p = " << p;
  }
}

TEST(Binomial, Determinism) {
  Rng a(7), b(7);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(a.binomial(1000, 0.123), b.binomial(1000, 0.123));
  }
}

}  // namespace
}  // namespace megflood
