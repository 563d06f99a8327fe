// Idle working-set sampling.
//
// §5.1: "a partial VM's memory consumption is randomly sampled from the
// distribution collected from [Jettison], which shows that the mean working
// set of idle desktop VMs with 4 GiB RAM was only 165.63 ± 91.38 MiB".
// We model that distribution as a truncated normal with exactly those
// moments, clamped to a sane floor (a partial VM always needs its page
// tables and kernel-resident set) and to the VM's allocation.

#ifndef OASIS_SRC_MEM_WORKING_SET_H_
#define OASIS_SRC_MEM_WORKING_SET_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/common/units.h"
#include "src/mem/working_set_kernel.h"

namespace oasis {

struct WorkingSetDistribution {
  double mean_mib = 165.63;
  double stddev_mib = 91.38;
  double floor_mib = 16.0;
  // The ceiling is the VM allocation, fixed per sampler.

  bool operator==(const WorkingSetDistribution&) const = default;
};

// InvalidArgument unless a sampler of `dist` clamped to `ceiling_bytes` can
// draw: finite parameters, a non-negative mean and floor, a positive
// standard deviation, a ceiling above the floor, and at least one draw in a
// million landing between them. Anything else rejects every (or nearly
// every) draw, and Sample would spin.
Status ValidateWorkingSet(const WorkingSetDistribution& dist, uint64_t ceiling_bytes);

// Draws idle working-set sizes a block at a time (see working_set_kernel.h):
// the stream is bit-identical to rejection-sampling Rng::NextGaussian one
// deviate at a time, which tests/working_set_test.cpp keeps as a reference.
class WorkingSetSampler {
 public:
  // Every sample is clamped to `ceiling_bytes`, the VM allocation. Asserts
  // ValidateWorkingSet.
  WorkingSetSampler(const WorkingSetDistribution& dist, uint64_t ceiling_bytes, uint64_t seed);
  WorkingSetSampler(uint64_t ceiling_bytes, uint64_t seed)
      : WorkingSetSampler(WorkingSetDistribution{}, ceiling_bytes, seed) {}

  // One idle working-set size in bytes, rounded up to whole pages.
  uint64_t Sample() {
    if (next_ == end_) [[unlikely]] {
      Refill();
    }
    return block_[next_++];
  }
  // The next `n` samples into out[0, n): the same stream, in the same
  // order, as `n` calls of Sample.
  void Take(size_t n, uint64_t* out) {
    while (n > 0) {
      if (next_ == end_) {
        Refill();
      }
      const size_t k = std::min<size_t>(n, end_ - next_);
      std::copy_n(block_.data() + next_, k, out);
      next_ += static_cast<uint32_t>(k);
      out += k;
      n -= k;
    }
  }

 private:
  friend class WorkingSetSamplerPeer;

  // Draws blocks of uniform pairs until one yields an accepted sample.
  void Refill();

  // Underlying (pre-truncation) normal parameters, solved so the
  // floor-truncated distribution reproduces the configured moments, with
  // the floor, ceiling and certificate margin.
  working_set_kernel::Params params_;
  Rng rng_;
  working_set_kernel::Fn kernel_;
  uint64_t exact_recomputes_ = 0;
  uint32_t next_ = 0;
  uint32_t end_ = 0;
  std::array<uint64_t, 2 * working_set_kernel::kBlockPairs> block_{};
};

}  // namespace oasis

#endif  // OASIS_SRC_MEM_WORKING_SET_H_
