#include "src/common/rng.h"

#include <cmath>

namespace oasis {
namespace {

uint64_t SplitMix64(uint64_t& x) {
  x += 0x9E3779B97F4A7C15ull;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) {
    s = SplitMix64(sm);
  }
}

double Rng::NextRange(double lo, double hi) { return lo + (hi - lo) * NextDouble(); }

bool Rng::NextBool(double p_true) { return NextDouble() < p_true; }

double Rng::NextGaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u1;
  do {
    u1 = NextDouble();
  } while (u1 <= 0.0);
  double u2 = NextDouble();
  double cos_deviate;
  BoxMuller(u1, u2, &cos_deviate, &cached_gaussian_);
  has_cached_gaussian_ = true;
  return cos_deviate;
}

void Rng::BoxMuller(double u1, double u2, double* cos_deviate, double* sin_deviate) {
  double r = std::sqrt(-2.0 * std::log(u1));
  double theta = 2.0 * M_PI * u2;
  *sin_deviate = r * std::sin(theta);
  *cos_deviate = r * std::cos(theta);
}

double Rng::NextGaussian(double mean, double stddev) {
  return mean + stddev * NextGaussian();
}

double Rng::NextExponential(double mean) {
  double u;
  do {
    u = NextDouble();
  } while (u <= 0.0);
  return -mean * std::log(u);
}

}  // namespace oasis
