// Deterministic pseudo-random number generation for simulations.
//
// Every stochastic component in Oasis draws from an explicitly-seeded Rng so
// that simulation runs are exactly reproducible. The generator is
// xoshiro256** seeded through SplitMix64, which has far better statistical
// quality than std::minstd and, unlike std::mt19937, a trivially copyable
// 32-byte state.

#ifndef OASIS_SRC_COMMON_RNG_H_
#define OASIS_SRC_COMMON_RNG_H_

#include <bit>
#include <cstdint>

namespace oasis {

class Rng {
 public:
  explicit Rng(uint64_t seed);

  // Uniform over all 64-bit values. Inline, like NextDouble: block samplers
  // draw millions of uniforms per run.
  uint64_t NextU64() {
    const uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  // Uniform in [0, bound). bound must be > 0. Uses Lemire's nearly
  // divisionless multiply-shift rejection method to avoid modulo bias.
  // Inline: the vacate planner draws one per placed item.
  uint64_t NextBelow(uint64_t bound) {
    uint64_t x = NextU64();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    uint64_t l = static_cast<uint64_t>(m);
    if (l < bound) [[unlikely]] {
      uint64_t threshold = (0 - bound) % bound;
      while (l < threshold) {
        x = NextU64();
        m = static_cast<__uint128_t>(x) * bound;
        l = static_cast<uint64_t>(m);
      }
    }
    return static_cast<uint64_t>(m >> 64);
  }

  // Uniform double in [0, 1): the 53 high bits of NextU64.
  double NextDouble() { return static_cast<double>(NextU64() >> 11) * 0x1.0p-53; }

  // Uniform double in [lo, hi).
  double NextRange(double lo, double hi);

  // Bernoulli draw.
  bool NextBool(double p_true);

  // Standard normal via Box-Muller (cached second deviate). Each pair draws
  // u1 = NextDouble() until it is > 0, then u2 = NextDouble(), and yields
  // BoxMuller's cos deviate before its sin deviate.
  double NextGaussian();

  // The Box-Muller transform NextGaussian applies to one uniform pair
  // (u1 in (0, 1), u2 in [0, 1)), shared so that a block sampler's exact
  // path computes bit for bit what NextGaussian would have returned.
  static void BoxMuller(double u1, double u2, double* cos_deviate, double* sin_deviate);

  // Normal with the given mean and standard deviation.
  double NextGaussian(double mean, double stddev);

  // Exponential with the given mean (not rate).
  double NextExponential(double mean);

 private:
  uint64_t s_[4];
  double cached_gaussian_ = 0.0;
  bool has_cached_gaussian_ = false;
};

}  // namespace oasis

#endif  // OASIS_SRC_COMMON_RNG_H_
