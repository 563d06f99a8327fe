#include "src/mem/working_set_kernel.h"

#include <cassert>
#include <cmath>
#include <cstring>

#include "src/common/rng.h"
#include "src/common/units.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define OASIS_WS_X86 1
#endif

namespace oasis {
namespace working_set_kernel {
namespace {

#define OASIS_WS_INLINE inline __attribute__((always_inline))

constexpr long long kOneBits = 0x3FF0000000000000LL;    // 1.0
constexpr long long kTwo52Bits = 0x4330000000000000LL;  // 2^52
constexpr long long kMantissaMask = 0x000FFFFFFFFFFFFFLL;
constexpr long long kAbsMask = 0x7FFFFFFFFFFFFFFFLL;
// x + kRoundMagic - kRoundMagic rounds |x| < 2^51 to an integer, which the
// sum's low mantissa bits then hold in two's complement.
constexpr double kRoundMagic = 0x1.8p52;
constexpr long long kRoundMagicBits = 0x4338000000000000LL;

// The kernel over N-lane vectors of doubles (D) and of their bit patterns
// (I, U): N = 2 for the baseline entry, whose SSE2 has no 64-bit integer
// compare and no 32-byte registers, and N = 4 for AVX2. Vectors cross
// function boundaries only by reference: in a baseline build GCC's -Wpsabi
// flags every function that takes or returns a 32-byte one by value,
// always_inline or not.
template <size_t N>
struct Vectors;
template <>
struct Vectors<2> {
  typedef double D __attribute__((vector_size(16)));
  typedef long long I __attribute__((vector_size(16)));
  typedef unsigned long long U __attribute__((vector_size(16)));
};
template <>
struct Vectors<4> {
  typedef double D __attribute__((vector_size(32)));
  typedef long long I __attribute__((vector_size(32)));
  typedef unsigned long long U __attribute__((vector_size(32)));
};

template <size_t N>
struct Block {
  using D = typename Vectors<N>::D;
  using I = typename Vectors<N>::I;
  using U = typename Vectors<N>::U;

  static OASIS_WS_INLINE void Load(const double* p, D& v) { std::memcpy(&v, p, sizeof v); }

  // out = mask ? a : b, lane by lane (mask lanes are all ones or all zeros).
  static OASIS_WS_INLINE void Blend(I& out, const I& mask, const I& a, const I& b) {
    out = (a & mask) | (b & ~mask);
  }

  // -2 ln(u) for u in [2^-53, 1): u = 2^e m with m in [sqrt(1/2), sqrt(2)),
  // ln m = 2 atanh(s) with s = (m - 1) / (m + 1), |s| <= 0.1716. The atanh
  // series through s^15 leaves a relative error below 4e-14 (the next term
  // is s^17 / 17 <= 3.3e-14 of the sum), and u near 1 keeps full relative
  // accuracy because m - 1 is exact.
  static OASIS_WS_INLINE void NegTwoLog(const double* u1, double* out, size_t pairs) {
    for (size_t i = 0; i < pairs; i += N) {
      D u;
      Load(u1 + i, u);
      U bits = (U)u;
      D e = (D)((bits >> 52) | kTwo52Bits) - (0x1p52 + 1023.0);
      D m = (D)((bits & kMantissaMask) | kOneBits);
      I big = (I)(m > M_SQRT2);
      I halved;
      Blend(halved, big, (I)(m * 0.5), (I)m);
      m = (D)halved;
      e += (D)(big & kOneBits);
      D s = (m - 1.0) / (m + 1.0);
      D z = s * s;
      D p = z * (1.0 / 15) + 1.0 / 13;
      p = p * z + 1.0 / 11;
      p = p * z + 1.0 / 9;
      p = p * z + 1.0 / 7;
      p = p * z + 1.0 / 5;
      p = p * z + 1.0 / 3;
      p = p * z + 1.0;
      D result = e * (-2.0 * M_LN2) - 4.0 * s * p;
      std::memcpy(out + i, &result, sizeof result);
    }
  }

  // The verdicts for N estimates `mib` (see the header comment): uncertain
  // within the margin of the floor, of the ceiling or of a page step.
  // q = mib * 256 - 2^-12 (exact below 2^33 MiB) puts the page steps on the
  // integers, so the step nearest mib is q's nearest integer R and the old
  // loop's page count, floor(q) + 1, is R + 1 if q >= R, else R.
  static OASIS_WS_INLINE void Certify(const D& mib, const Params& params, I& verdict) {
    const double margin = params.margin_mib;
    D q = mib * 256.0 - 0x1p-12;
    D shifted = q + kRoundMagic;
    D d = q - (shifted - kRoundMagic);
    I at_or_past = (I)(d >= 0.0);
    I pages = ((I)shifted - kRoundMagicBits) - at_or_past;
    I near_step = (I)((D)((I)d & kAbsMask) <= 256.0 * margin);
    I near_floor = (I)((D)((I)(mib - params.floor_mib) & kAbsMask) <= margin);
    I near_ceiling = (I)((D)((I)(mib - params.ceiling_mib) & kAbsMask) <= margin);
    // |mib| <= 2^40 keeps |q| < 2^51, the rounding's range; NaN fails it.
    // (q rounds above 2^33 MiB, by far less than the margin's 2^-40 |mu|.)
    I in_range = (I)((D)((I)mib & kAbsMask) <= 0x1p40);
    I rejected = (I)(mib < params.floor_mib) | (I)(mib > params.ceiling_mib);
    I uncertain = near_step | near_floor | near_ceiling | ~in_range;
    I kept;
    Blend(kept, rejected, I{} + kRejected, pages << 12);
    Blend(verdict, uncertain, I{} + kUncertain, kept);
  }

  // Box-Muller from r = sqrt(-2 ln u1) and u2, then the verdicts,
  // interleaved cos, sin per pair. The angle 2 pi u2 is reduced exactly in
  // quarter turns: y = 4 u2, q = round(y), f = y - q in [-1/2, 1/2], and
  // sin/cos(pi/2 f) are Taylor polynomials through f^13 and f^14
  // (truncation below 2.1e-14).
  static OASIS_WS_INLINE void Finish(const double* radius, const double* u2, size_t pairs,
                                     const Params& params, int64_t* verdicts) {
    // (pi/2)^k / k!, alternating.
    constexpr double kS1 = 1.5707963267948966;
    constexpr double kS3 = -0.6459640975062463;
    constexpr double kS5 = 0.07969262624616705;
    constexpr double kS7 = -0.004681754135318688;
    constexpr double kS9 = 0.00016044118478735983;
    constexpr double kS11 = -3.598843235212085e-06;
    constexpr double kS13 = 5.692172921967927e-08;
    constexpr double kC2 = -1.2337005501361697;
    constexpr double kC4 = 0.25366950790104803;
    constexpr double kC6 = -0.02086348076335296;
    constexpr double kC8 = 0.0009192602748394266;
    constexpr double kC10 = -2.5202042373060607e-05;
    constexpr double kC12 = 4.710874778818172e-07;
    constexpr double kC14 = -6.386603083791852e-09;
    for (size_t i = 0; i < pairs; i += N) {
      D r;
      D u;
      Load(radius + i, r);
      Load(u2 + i, u);
      D y = u * 4.0;
      D shifted = y + kRoundMagic;
      I quadrant = (I)shifted;  // q in the low bits: the ulp of shifted is 1
      D f = y - (shifted - kRoundMagic);
      D z = f * f;
      D sp = z * kS13 + kS11;
      sp = sp * z + kS9;
      sp = sp * z + kS7;
      sp = sp * z + kS5;
      sp = sp * z + kS3;
      sp = sp * z + kS1;
      sp = sp * f;
      D cp = z * kC14 + kC12;
      cp = cp * z + kC10;
      cp = cp * z + kC8;
      cp = cp * z + kC6;
      cp = cp * z + kC4;
      cp = cp * z + kC2;
      cp = cp * z + 1.0;
      // cos(q pi/2 + phi), sin(q pi/2 + phi) by quadrant: swap on odd q,
      // negate cos for q in {1, 2} and sin for q in {2, 3}.
      I odd = -(quadrant & 1);
      I c;
      I s;
      Blend(c, odd, (I)sp, (I)cp);
      Blend(s, odd, (I)cp, (I)sp);
      c ^= ((quadrant + 1) & 2) << 62;
      s ^= (quadrant & 2) << 62;
      D mib_cos = params.mu + params.sigma * (r * (D)c);
      D mib_sin = params.mu + params.sigma * (r * (D)s);
      I v_cos;
      I v_sin;
      Certify(mib_cos, params, v_cos);
      Certify(mib_sin, params, v_sin);
      for (size_t j = 0; j < N; ++j) {
        verdicts[2 * (i + j)] = v_cos[j];
        verdicts[2 * (i + j) + 1] = v_sin[j];
      }
    }
  }
};

void BaselineKernel(const double* u1, const double* u2, size_t pairs, const Params& params,
                    int64_t* verdicts) {
  assert(pairs % 4 == 0 && pairs <= kBlockPairs);
  alignas(32) double radius[kBlockPairs];
  Block<2>::NegTwoLog(u1, radius, pairs);
  for (size_t i = 0; i < pairs; i += 2) {
#if defined(OASIS_WS_X86)
    _mm_store_pd(radius + i, _mm_sqrt_pd(_mm_load_pd(radius + i)));
#else
    radius[i] = __builtin_sqrt(radius[i]);
    radius[i + 1] = __builtin_sqrt(radius[i + 1]);
#endif
  }
  Block<2>::Finish(radius, u2, pairs, params, verdicts);
}

#if defined(OASIS_WS_X86)
__attribute__((target("avx2,fma"))) void Avx2Kernel(const double* u1, const double* u2,
                                                    size_t pairs, const Params& params,
                                                    int64_t* verdicts) {
  assert(pairs % 4 == 0 && pairs <= kBlockPairs);
  alignas(32) double radius[kBlockPairs];
  Block<4>::NegTwoLog(u1, radius, pairs);
  for (size_t i = 0; i < pairs; i += 4) {
    _mm256_store_pd(radius + i, _mm256_sqrt_pd(_mm256_load_pd(radius + i)));
  }
  Block<4>::Finish(radius, u2, pairs, params, verdicts);
}

bool CpuHasAvx2Fma() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}
#endif

}  // namespace

double MarginMiB(double mu, double sigma) {
  return 1e-10 * sigma + 0x1p-40 * (std::fabs(mu) + 9.0 * sigma);
}

std::span<const Entry> Entries() {
  static const Entry kEntries[] = {
      {"baseline", &BaselineKernel, true},
#if defined(OASIS_WS_X86)
      {"avx2", &Avx2Kernel, CpuHasAvx2Fma()},
#endif
  };
  return kEntries;
}

Fn Select() {
  static const Fn chosen = [] {
    Fn best = nullptr;
    for (const Entry& entry : Entries()) {
      if (entry.supported) {
        best = entry.fn;
      }
    }
    return best;
  }();
  return chosen;
}

int64_t Exact(double u1, double u2, bool sin_deviate, const Params& params) {
  double cos_deviate;
  double sin_deviate_value;
  Rng::BoxMuller(u1, u2, &cos_deviate, &sin_deviate_value);
  // The old loop's rng.NextGaussian(mu, sigma) and its bounds, verbatim.
  double mib = params.mu + params.sigma * (sin_deviate ? sin_deviate_value : cos_deviate);
  if (mib < params.floor_mib || mib > params.ceiling_mib) {
    return kRejected;
  }
  uint64_t bytes = MiBToBytes(mib);
  return static_cast<int64_t>((bytes + kPageSize - 1) / kPageSize * kPageSize);
}

void Certify(const double* mib, size_t n, const Params& params, int64_t* verdicts) {
  assert(n % 2 == 0);
  for (size_t i = 0; i < n; i += 2) {
    Block<2>::D m;
    Block<2>::I verdict;
    Block<2>::Load(mib + i, m);
    Block<2>::Certify(m, params, verdict);
    std::memcpy(verdicts + i, &verdict, sizeof verdict);
  }
}

}  // namespace working_set_kernel
}  // namespace oasis
