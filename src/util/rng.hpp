#pragma once

// Deterministic, seedable random number generation for all stochastic
// processes in megflood.  Every model takes an explicit 64-bit seed so that
// experiments are reproducible bit-for-bit; we deliberately avoid
// std::mt19937 to keep cross-platform stream identity trivial to audit.
//
// Hot loops that draw many variates at one parameter use the samplers,
// which hoist the per-parameter work out of the loop and consume the
// stream exactly as the Rng member they mirror: GeometricSampler computes
// log1p(-p) once for geometric skipping, BernoulliSampler turns the float
// coin uniform() < p into an integer compare against a precomputed
// threshold, which the edge-MEG death walk folds into a bitmask.

#include <cstdint>
#include <limits>
#include <vector>

namespace megflood {

// SplitMix64: used to expand a single user seed into independent stream
// seeds (one per node / per edge).  Reference: Steele, Lea, Flood (2014).
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

// Xoshiro256**: the workhorse generator.  Satisfies the C++ named
// requirement UniformRandomBitGenerator so it also plugs into <random>.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL) noexcept {
    reseed(seed);
  }

  void reseed(std::uint64_t seed) noexcept {
    SplitMix64 sm(seed);
    for (auto& s : s_) s = sm.next();
    // A zero state is a fixed point of xoshiro; SplitMix64 cannot emit four
    // zeros in a row, so the state is always valid.
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  // Uniform double in [0, 1) with 53 bits of precision.
  double uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  // Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  // Uniform integer in [0, bound). Lemire's unbiased multiply-shift method.
  std::uint64_t uniform_int(std::uint64_t bound) noexcept;

  // Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
    return lo + static_cast<std::int64_t>(
                    uniform_int(static_cast<std::uint64_t>(hi - lo + 1)));
  }

  // Bernoulli trial with success probability p.
  bool bernoulli(double p) noexcept { return uniform() < p; }

  // Geometric number of failures before first success, success prob p in
  // (0,1].  Saturates to numeric_limits<uint64_t>::max() if p is tiny
  // enough that the draw overflows — callers that accumulate skips must
  // use geometric_select() (or an equivalent pre-add bound check) so the
  // saturated value cannot wrap their index arithmetic.
  std::uint64_t geometric(double p) noexcept;

  // Binomial(n, p): number of successes among n Bernoulli(p) trials,
  // sampled by geometric gap counting over the smaller of p and 1 - p, so
  // the expected cost is O(n * min(p, 1 - p)) RNG draws.  This is the
  // batching primitive behind the edge-MEG initializers: in the sparse
  // regimes (p near 0 or 1) a draw over millions of pairs costs a handful
  // of geometrics.
  std::uint64_t binomial(std::uint64_t n, double p) noexcept;

  // Derive a statistically independent child generator (e.g. one per node).
  Rng split() noexcept { return Rng((*this)() ^ 0x6a09e667f3bcc909ULL); }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
};

// Rng::geometric(p) with log1p(-p) computed once, for a run of draws at
// one p.  Every draw evaluates the same expression on the same uniform,
// so a sampler and repeated rng.geometric(p) calls produce the identical
// values and consume the identical stream.  Precondition: p in (0, 1].
class GeometricSampler {
 public:
  explicit GeometricSampler(double p) noexcept;

  std::uint64_t operator()(Rng& rng) const noexcept;

 private:
  bool certain_;  // p >= 1: every draw is 0 and consumes nothing
  double log_q_;  // log1p(-p)
};

// Rng::bernoulli(p) as an integer comparison, for a run of coins at one
// p.  uniform() < p is (x >> 11) * 2^-53 < p, and both the conversion of
// a value below 2^53 and the scaling by 2^-53 are exact, so the test is
// exactly (x >> 11) < ceil(p * 2^53): the threshold is computed once and
// every coin costs one draw and one integer compare.  Agrees with
// rng.bernoulli(p) coin for coin and draw for draw at every p, including
// p <= 0 or NaN (never) and p >= 1 (always).  accept() takes the raw
// 64-bit draw, so a caller can fold coins into a bitmask without a branch
// and a test can feed it chosen bits.
class BernoulliSampler {
 public:
  explicit BernoulliSampler(double p) noexcept;

  // ceil(p * 2^53) clamped to [0, 2^53]: accept iff (bits >> 11) < it.
  std::uint64_t threshold() const noexcept { return threshold_; }

  bool accept(std::uint64_t bits) const noexcept {
    return (bits >> 11) < threshold_;
  }

  bool operator()(Rng& rng) const noexcept { return accept(rng()); }

 private:
  std::uint64_t threshold_;
};

// Selects each index in [0, count) independently with probability p and
// calls visit(i) for the selected indices in ascending order, consuming
// one geometric draw per gap (the batch-sampling primitive behind the
// sparse edge-MEG steps).  Overflow-safe: the skip is checked against the
// remaining range before it is added, so a saturated geometric draw ends
// the scan instead of wrapping the index.  Consumes no draws when p <= 0
// or count == 0.
template <typename Visit>
inline void geometric_select(Rng& rng, std::uint64_t count, double p,
                             Visit&& visit) {
  if (p <= 0.0 || count == 0) return;
  const GeometricSampler geometric(p);
  std::uint64_t i = geometric(rng);
  while (i < count) {
    visit(i);
    const std::uint64_t skip = geometric(rng);
    if (skip >= count - i - 1) break;  // next index would pass the end
    i += 1 + skip;
  }
}

// Expand one master seed into `count` per-entity seeds.
std::vector<std::uint64_t> derive_seeds(std::uint64_t master, std::size_t count);

// Sample an index from a discrete distribution given by non-negative
// weights (need not be normalized).  Precondition: sum of weights > 0.
std::size_t sample_discrete(Rng& rng, const std::vector<double>& weights);

}  // namespace megflood
