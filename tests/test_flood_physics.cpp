// The paper's law at scale: flooding a sparse two-state edge-MEG (Eq. 2
// regime, stationary density alpha = 4/n, so n p ~ 1.2) takes
// Theta(log n / log(1 + n p)) rounds.  The mean over 32 fixed-seed trials
// must stay within a constant band of edge_meg_tight_bound at two sizes;
// the bounds sit around the measured 1.08 (n = 2^12) to 1.12 (n = 2^16)
// with room for the trial noise of 32 floods but not for a step that
// changes the law (a lost death, a doubled birth rate, a stale on-set).
// Every seed is fixed, so the verdict is deterministic.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "analysis/bounds.hpp"
#include "core/flooding.hpp"
#include "meg/edge_meg.hpp"
#include "util/rng.hpp"

namespace megflood {
namespace {

constexpr double kDeathRate = 0.3;
constexpr std::size_t kTrials = 32;

double mean_rounds_over_tight_bound(std::size_t n) {
  const double alpha = 4.0 / static_cast<double>(n);
  const double p = alpha * kDeathRate / (1.0 - alpha);  // alpha = p/(p+q)
  const auto seeds = derive_seeds(n, kTrials);
  double rounds = 0.0;
  for (const std::uint64_t seed : seeds) {
    TwoStateEdgeMEG meg(n, {p, kDeathRate}, seed);
    const FloodResult r = flood(meg, 0, 10 * n);
    EXPECT_TRUE(r.completed) << "n = " << n << " seed = " << seed;
    rounds += static_cast<double>(r.rounds);
  }
  return rounds / static_cast<double>(kTrials) / edge_meg_tight_bound(n, p);
}

TEST(FloodPhysics, SparseEdgeMegFloodsInTightBoundRounds) {
  for (const std::size_t n : {std::size_t{1} << 12, std::size_t{1} << 14}) {
    const double ratio = mean_rounds_over_tight_bound(n);
    RecordProperty("ratio_n" + std::to_string(n), std::to_string(ratio));
    EXPECT_GE(ratio, 1.0) << "n = " << n;
    EXPECT_LE(ratio, 1.25) << "n = " << n;
  }
}

}  // namespace
}  // namespace megflood
