// The block kernel behind WorkingSetSampler (src/mem/working_set.h).
//
// A refill draws a block of uniform pairs from the sampler's Rng in exactly
// the order Rng::NextGaussian consumes them, then a branchless vector kernel
// evaluates Box-Muller for the whole block with polynomial log/sin/cos and
// gives every deviate one of three verdicts: a certified page-rounded size, a
// certified rejection (below the floor or above the ceiling), or "uncertain".
//
// The certificate. Let mib be the kernel's estimate of mu + sigma * g. The
// kernel keeps its verdict only when every value in [mib - E, mib + E] gets
// the same floor verdict, the same ceiling verdict and the same page count.
// The libm value the old rejection loop computed lies in that interval
// whenever the kernel's error is below E, and each verdict is monotone in
// the value, so it gets the same verdict too. E is margin_mib below, 1e-10
// standard deviations plus a rounding slack; the kernel's deviates are within
// ~1e-13 of libm's, three orders of magnitude inside it. An uncertain deviate
// (a few per million: those within E of a page boundary, of the floor or of
// the ceiling) is recomputed by Exact with the very expression the old loop
// used, so the sampler's output stream is bit-identical to it.
//
// Page counts. The old loop returned ceil(floor(mib * 2^20) / 4096) pages,
// which equals floor(mib * 256 - 2^-12) + 1 for every mib >= 0, and
// mib * 256 - 2^-12 is exact for mib * 256 < 2^41. The count therefore
// steps exactly at mib = (k * 4096 + 1) / 2^20, one byte past each page.
//
// Two entries compile the same inline source: a baseline one (2-lane) and,
// on x86, an AVX2+FMA one (4-lane). Select() picks once from the CPU;
// nothing else chooses.

#ifndef OASIS_SRC_MEM_WORKING_SET_KERNEL_H_
#define OASIS_SRC_MEM_WORKING_SET_KERNEL_H_

#include <cstddef>
#include <cstdint>
#include <span>

namespace oasis {

class WorkingSetSampler;

namespace working_set_kernel {

// Pairs per refill; a multiple of the kernel's 4-lane vectors.
inline constexpr size_t kBlockPairs = 32;

// A sampler's per-block constants (MiB).
struct Params {
  double mu = 0.0;     // underlying normal mean
  double sigma = 1.0;  // underlying normal standard deviation
  double floor_mib = 0.0;
  double ceiling_mib = 0.0;
  double margin_mib = 0.0;  // E
};

// E for an underlying normal(mu, sigma): 1e-10 sigma for the kernel's deviate
// error, plus 2^-40 of the largest |mib| a deviate reaches for the rounding of
// mu + sigma * g and of the interval ends.
double MarginMiB(double mu, double sigma);

// Verdict encoding, one int64_t per deviate: a page-rounded byte count >= 0
// is a certified accept, kRejected a certified rejection, kUncertain
// "recompute exactly".
inline constexpr int64_t kRejected = -1;
inline constexpr int64_t kUncertain = -2;

// Fills verdicts[2i] (pair i's cos deviate) and verdicts[2i + 1] (its sin
// deviate) for `pairs` uniform pairs; `pairs` is a multiple of 4, at most
// kBlockPairs, u1 in (0, 1) and u2 in [0, 1).
using Fn = void (*)(const double* u1, const double* u2, size_t pairs, const Params& params,
                    int64_t* verdicts);

struct Entry {
  const char* name;
  Fn fn;
  bool supported;  // the CPU can run it
};

// Every compiled entry, baseline first.
std::span<const Entry> Entries();

// The fastest supported entry, chosen once per process.
Fn Select();

// The old rejection loop's verdict for one deviate, through libm
// (Rng::BoxMuller). Never returns kUncertain.
int64_t Exact(double u1, double u2, bool sin_deviate, const Params& params);

// The certificate alone, baseline build: verdicts for `n` (even) estimated
// values `mib`.
void Certify(const double* mib, size_t n, const Params& params, int64_t* verdicts);

}  // namespace working_set_kernel

// Reaches into a WorkingSetSampler for tests and benchmarks.
class WorkingSetSamplerPeer {
 public:
  static void SetKernel(WorkingSetSampler& sampler, working_set_kernel::Fn fn);
  // Deviates Exact recomputed so far.
  static uint64_t exact_recomputes(const WorkingSetSampler& sampler);
  static const working_set_kernel::Params& params(const WorkingSetSampler& sampler);
  // Discards the rest of the current block and refills it.
  static void Refill(WorkingSetSampler& sampler);
};

}  // namespace oasis

#endif  // OASIS_SRC_MEM_WORKING_SET_KERNEL_H_
