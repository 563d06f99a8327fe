#include "src/mem/working_set.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <vector>

#include "src/common/stats.h"
#include "src/mem/working_set_kernel.h"

namespace oasis {
namespace {

namespace wsk = working_set_kernel;

TEST(WorkingSetTest, MatchesPaperMoments) {
  // §5.1: idle working sets of 4 GiB desktop VMs were 165.63 ± 91.38 MiB.
  WorkingSetSampler sampler(4 * kGiB, 1);
  OnlineStats stats;
  for (int i = 0; i < 20000; ++i) {
    stats.Add(ToMiB(sampler.Sample()));
  }
  EXPECT_NEAR(stats.mean(), 165.63, 6.0);
  EXPECT_NEAR(stats.stddev(), 91.38, 8.0);
}

TEST(WorkingSetTest, RespectsFloorAndCeiling) {
  WorkingSetSampler sampler(4 * kGiB, 2);
  for (int i = 0; i < 5000; ++i) {
    uint64_t ws = sampler.Sample();
    EXPECT_GE(ws, MiBToBytes(16.0));
    EXPECT_LE(ws, 4 * kGiB);
  }
}

TEST(WorkingSetTest, SmallAllocationClampsCeiling) {
  WorkingSetSampler sampler(256 * kMiB, 3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LE(sampler.Sample(), 256 * kMiB);
  }
}

TEST(WorkingSetTest, ResultsArePageAligned) {
  WorkingSetSampler sampler(4 * kGiB, 4);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(sampler.Sample() % kPageSize, 0u);
  }
}

TEST(WorkingSetTest, DeterministicForSeed) {
  WorkingSetSampler a(4 * kGiB, 5);
  WorkingSetSampler b(4 * kGiB, 5);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(a.Sample(), b.Sample());
  }
}

// A bulk take is the same stream as one sample at a time: takes of every
// size from 0 to past two blocks, crossing refills at every offset.
TEST(WorkingSetTest, TakeIsTheSampleStream) {
  WorkingSetSampler one(4 * kGiB, 9);
  WorkingSetSampler bulk(4 * kGiB, 9);
  std::vector<uint64_t> taken;
  for (size_t n = 0; n < 150; ++n) {
    taken.assign(n, 0);
    bulk.Take(n, taken.data());
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(taken[i], one.Sample()) << "take of " << n << ", sample " << i;
    }
  }
  EXPECT_EQ(bulk.Sample(), one.Sample());
}

TEST(WorkingSetTest, CustomDistribution) {
  WorkingSetDistribution dist;
  dist.mean_mib = 500.0;
  dist.stddev_mib = 10.0;
  WorkingSetSampler sampler(dist, 4 * kGiB, 6);
  OnlineStats stats;
  for (int i = 0; i < 5000; ++i) {
    stats.Add(ToMiB(sampler.Sample()));
  }
  EXPECT_NEAR(stats.mean(), 500.0, 2.0);
}

TEST(WorkingSetTest, WorkingSetsAreSmallFractionOfAllocation) {
  // §2's core observation: idle VMs touch <5% of their allocation.
  WorkingSetSampler sampler(4 * kGiB, 7);
  OnlineStats stats;
  for (int i = 0; i < 10000; ++i) {
    stats.Add(static_cast<double>(sampler.Sample()) / (4.0 * kGiB));
  }
  EXPECT_LT(stats.mean(), 0.05);
}

TEST(WorkingSetTest, ValidateRejectsDistributionsThatCannotDraw) {
  WorkingSetDistribution dist;
  EXPECT_TRUE(ValidateWorkingSet(dist, 4 * kGiB).ok());
  EXPECT_TRUE(ValidateWorkingSet(dist, 17 * kMiB).ok());
  // A ceiling at or below the 16 MiB floor rejects every draw.
  EXPECT_FALSE(ValidateWorkingSet(dist, 16 * kMiB).ok());
  EXPECT_FALSE(ValidateWorkingSet(dist, 8 * kMiB).ok());
  // So does a ceiling 24 standard deviations below the mean.
  WorkingSetDistribution narrow;
  narrow.mean_mib = 500.0;
  narrow.stddev_mib = 10.0;
  EXPECT_TRUE(ValidateWorkingSet(narrow, 512 * kMiB).ok());
  EXPECT_FALSE(ValidateWorkingSet(narrow, 256 * kMiB).ok());
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  for (double bad : {kNan, kInf, -1.0}) {
    WorkingSetDistribution d;
    d.mean_mib = bad;
    EXPECT_FALSE(ValidateWorkingSet(d, 4 * kGiB).ok()) << bad;
    d = WorkingSetDistribution{};
    d.stddev_mib = bad;
    EXPECT_FALSE(ValidateWorkingSet(d, 4 * kGiB).ok()) << bad;
    d = WorkingSetDistribution{};
    d.floor_mib = bad;
    EXPECT_FALSE(ValidateWorkingSet(d, 4 * kGiB).ok()) << bad;
  }
  WorkingSetDistribution flat;
  flat.stddev_mib = 0.0;
  EXPECT_FALSE(ValidateWorkingSet(flat, 4 * kGiB).ok());
}

// The sampler as it was before block draws: rejection-sample
// Rng::NextGaussian one deviate at a time.
class ReferenceSampler {
 public:
  ReferenceSampler(const WorkingSetDistribution& dist, const wsk::Params& solved,
                   uint64_t ceiling_bytes, uint64_t seed)
      : dist_(dist), mu_(solved.mu), sigma_(solved.sigma), ceiling_mib_(ToMiB(ceiling_bytes)),
        rng_(seed) {}

  uint64_t Sample() {
    double mib;
    do {
      mib = rng_.NextGaussian(mu_, sigma_);
    } while (mib < dist_.floor_mib || mib > ceiling_mib_);
    uint64_t bytes = MiBToBytes(mib);
    uint64_t pages = (bytes + kPageSize - 1) / kPageSize;
    return pages * kPageSize;
  }

 private:
  WorkingSetDistribution dist_;
  double mu_;
  double sigma_;
  double ceiling_mib_;
  Rng rng_;
};

struct DifferentialCase {
  const char* name;
  double mean_mib;
  double stddev_mib;
  uint64_t ceiling_bytes;
  uint64_t seed;
};

// 10^7 samples per case through every kernel entry the CPU supports, each
// compared with the reference stream. The 256 and 160 MiB ceilings reject a
// large share of the default distribution's draws and the 512 MiB and 1 GiB
// ones of the narrow and wide distributions'; the wide distribution also
// widens the certificate margin (it scales with sigma), so it takes the libm
// path more often.
TEST(WorkingSetDifferentialTest, BlockStreamMatchesRejectionLoop) {
  const DifferentialCase kCases[] = {
      {"default/4GiB", 165.63, 91.38, 4 * kGiB, 11},
      {"default/256MiB", 165.63, 91.38, 256 * kMiB, 12},
      {"default/160MiB", 165.63, 91.38, 160 * kMiB, 13},
      {"narrow/4GiB", 500.0, 10.0, 4 * kGiB, 14},
      {"narrow/512MiB", 500.0, 10.0, 512 * kMiB, 15},
      {"wide/4GiB", 2000.0, 1000.0, 4 * kGiB, 16},
      {"wide/1GiB", 2000.0, 1000.0, 1 * kGiB, 17},
  };
  constexpr int kSamples = 10'000'000;
  for (const DifferentialCase& c : kCases) {
    SCOPED_TRACE(c.name);
    WorkingSetDistribution dist;
    dist.mean_mib = c.mean_mib;
    dist.stddev_mib = c.stddev_mib;
    ASSERT_TRUE(ValidateWorkingSet(dist, c.ceiling_bytes).ok());
    std::vector<WorkingSetSampler> samplers;
    for (const wsk::Entry& entry : wsk::Entries()) {
      if (entry.supported) {
        samplers.emplace_back(dist, c.ceiling_bytes, c.seed);
        WorkingSetSamplerPeer::SetKernel(samplers.back(), entry.fn);
      }
    }
    ReferenceSampler reference(dist, WorkingSetSamplerPeer::params(samplers.front()),
                               c.ceiling_bytes, c.seed);
    int mismatches = 0;
    for (int i = 0; i < kSamples; ++i) {
      const uint64_t want = reference.Sample();
      for (WorkingSetSampler& sampler : samplers) {
        const uint64_t got = sampler.Sample();
        if (got != want && ++mismatches <= 5) {
          ADD_FAILURE() << "sample " << i << ": got " << got << ", want " << want;
        }
      }
    }
    EXPECT_EQ(mismatches, 0);
    for (const WorkingSetSampler& sampler : samplers) {
      EXPECT_GT(WorkingSetSamplerPeer::exact_recomputes(sampler), 0u)
          << "the libm path never ran";
    }
  }
}

// A deviate's sampler value mu + sigma * g read back through the page count
// with no margin: with mu = 2^39 and sigma = 2^35 MiB one page is 1.1e-13 of
// a standard deviate, so the counts compare the kernel's deviates with libm's
// to that resolution.
TEST(WorkingSetKernelTest, DeviatesTrackLibmFarInsideTheMargin) {
  wsk::Params probe;
  probe.mu = 0x1p39;
  probe.sigma = 0x1p35;
  probe.floor_mib = 0.0;
  probe.ceiling_mib = 0x1p41;
  probe.margin_mib = 0.0;
  constexpr double kPageInDeviates = 1.0 / (256.0 * 0x1p35);
  // Edge uniforms first (u1 at 2^-53 and just below 1; u2 on and next to the
  // quadrant and octant boundaries), then random ones.
  const double kEdgeU1[] = {0x1p-53, 0x1p-52, 0.5, std::nextafter(1.0, 0.0), M_SQRT1_2,
                            std::nextafter(M_SQRT1_2, 0.0), std::nextafter(M_SQRT1_2, 1.0), 0.25};
  const double kEdgeU2[] = {0.0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875,
                            std::nextafter(0.125, 0.0), std::nextafter(0.375, 1.0),
                            std::nextafter(0.625, 0.0), std::nextafter(0.875, 1.0),
                            std::nextafter(1.0, 0.0), 0x1p-53, 0.999, 0.3};
  Rng rng(99);
  for (const wsk::Entry& entry : wsk::Entries()) {
    if (!entry.supported) {
      continue;
    }
    SCOPED_TRACE(entry.name);
    double worst = 0.0;
    int on_steps = 0;
    for (int block = 0; block < 20000; ++block) {
      double u1[wsk::kBlockPairs];
      double u2[wsk::kBlockPairs];
      for (size_t i = 0; i < wsk::kBlockPairs; ++i) {
        const size_t n = block * wsk::kBlockPairs + i;
        if (n < std::size(kEdgeU1) * std::size(kEdgeU2)) {
          u1[i] = kEdgeU1[n / std::size(kEdgeU2)];
          u2[i] = kEdgeU2[n % std::size(kEdgeU2)];
        } else {
          do {
            u1[i] = rng.NextDouble();
          } while (u1[i] <= 0.0);
          u2[i] = rng.NextDouble();
        }
      }
      int64_t verdicts[2 * wsk::kBlockPairs];
      entry.fn(u1, u2, wsk::kBlockPairs, probe, verdicts);
      for (size_t i = 0; i < 2 * wsk::kBlockPairs; ++i) {
        const int64_t exact = wsk::Exact(u1[i / 2], u2[i / 2], (i & 1) != 0, probe);
        if (verdicts[i] == wsk::kUncertain) {
          ++on_steps;  // exactly on a page step; nothing to compare
          continue;
        }
        ASSERT_GE(verdicts[i], 0);
        const double pages = static_cast<double>(std::abs(verdicts[i] - exact) / kPageSize);
        worst = std::max(worst, pages * kPageInDeviates);
      }
    }
    // The margin is 1e-10 standard deviations; stay 100x inside it.
    EXPECT_LE(worst, 1e-12);
    // q's ulp is 1/32 page at mu = 2^39, so about 1/32 of the deviates sit
    // exactly on a step.
    EXPECT_LT(on_steps, 20000 * static_cast<int>(wsk::kBlockPairs) / 16);
    std::printf("%s: worst deviate error %.3g\n", entry.name, worst);
  }
}

// Every entry gives the same final verdicts on the same uniforms: certified
// ones equal libm's, and uncertain ones resolve to it.
TEST(WorkingSetKernelTest, EntriesAgreeOnTheSameUniforms) {
  WorkingSetSampler sampler(160 * kMiB, 5);
  const wsk::Params params = WorkingSetSamplerPeer::params(sampler);
  Rng rng(123);
  int uncertain = 0;
  for (int block = 0; block < 20000; ++block) {
    double u1[wsk::kBlockPairs];
    double u2[wsk::kBlockPairs];
    for (size_t i = 0; i < wsk::kBlockPairs; ++i) {
      do {
        u1[i] = rng.NextDouble();
      } while (u1[i] <= 0.0);
      u2[i] = rng.NextDouble();
    }
    for (const wsk::Entry& entry : wsk::Entries()) {
      if (!entry.supported) {
        continue;
      }
      int64_t verdicts[2 * wsk::kBlockPairs];
      entry.fn(u1, u2, wsk::kBlockPairs, params, verdicts);
      for (size_t i = 0; i < 2 * wsk::kBlockPairs; ++i) {
        const int64_t exact = wsk::Exact(u1[i / 2], u2[i / 2], (i & 1) != 0, params);
        if (verdicts[i] == wsk::kUncertain) {
          ++uncertain;
        } else {
          ASSERT_EQ(verdicts[i], exact) << entry.name << " block " << block << " deviate " << i;
        }
      }
    }
  }
  EXPECT_LT(uncertain, 100);
}

// The certificate on values placed exactly at a page step, k * 4096 + 1
// bytes, and one ulp either side of it: the page count changes there, so
// all three must fall back to libm, while values a page-quarter away are
// certified with the old loop's page count.
TEST(WorkingSetKernelTest, CertificateFallsBackAtPageSteps) {
  WorkingSetSampler sampler(4 * kGiB, 1);
  const wsk::Params params = WorkingSetSamplerPeer::params(sampler);
  auto size_of = [](double mib) {
    uint64_t bytes = MiBToBytes(mib);
    return static_cast<int64_t>((bytes + kPageSize - 1) / kPageSize * kPageSize);
  };
  for (uint64_t k : {uint64_t{4097}, uint64_t{40'000}, uint64_t{123'457}, uint64_t{1'048'575}}) {
    const double step = static_cast<double>(k * kPageSize + 1) / kMiB;
    double mib[8] = {std::nextafter(step, 0.0),
                     step,
                     std::nextafter(step, 1e9),
                     step + params.margin_mib / 2,
                     step - 0.25 / 256,
                     step + 0.25 / 256,
                     step - 0.75 / 256,
                     step + 0.75 / 256};
    int64_t verdicts[8];
    wsk::Certify(mib, 8, params, verdicts);
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(verdicts[i], wsk::kUncertain) << "k=" << k << " i=" << i;
    }
    for (int i = 4; i < 8; ++i) {
      EXPECT_EQ(verdicts[i], size_of(mib[i])) << "k=" << k << " i=" << i;
    }
    // The step is where the old loop's size moves.
    EXPECT_EQ(size_of(mib[0]) + static_cast<int64_t>(kPageSize), size_of(mib[1])) << "k=" << k;
    EXPECT_EQ(size_of(mib[1]), size_of(mib[2])) << "k=" << k;
  }
}

// Within the margin of the floor or the ceiling the verdict falls back; past
// it the rejection is certified.
TEST(WorkingSetKernelTest, CertificateFallsBackAtFloorAndCeiling) {
  WorkingSetSampler sampler(160 * kMiB, 1);
  const wsk::Params params = WorkingSetSamplerPeer::params(sampler);
  const double e = params.margin_mib;
  const double f = params.floor_mib;
  const double c = params.ceiling_mib;
  double mib[12] = {f - e / 2, f, f + e / 2, f - 2 * e, f + 1.0 / 512, f - 1.0,
                    c - e / 2, c, c + e / 2, c + 2 * e, c - 1.0 / 512, c + 1.0};
  int64_t verdicts[12];
  wsk::Certify(mib, 12, params, verdicts);
  const int64_t page = static_cast<int64_t>(kPageSize);
  const int64_t want[12] = {wsk::kUncertain, wsk::kUncertain, wsk::kUncertain,
                            wsk::kRejected,  (16 * 256 + 1) * page, wsk::kRejected,
                            wsk::kUncertain, wsk::kUncertain,  wsk::kUncertain,
                            wsk::kRejected,  160 * 256 * page,      wsk::kRejected};
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(verdicts[i], want[i]) << "i=" << i << " mib=" << mib[i];
  }
  // Out of the exact range, or NaN: fall back. 100 MiB is one byte short of
  // a step and certified.
  double odd[4] = {0x1p41, -0x1p41, std::numeric_limits<double>::quiet_NaN(), 100.0};
  wsk::Certify(odd, 4, params, verdicts);
  EXPECT_EQ(verdicts[0], wsk::kUncertain);
  EXPECT_EQ(verdicts[1], wsk::kUncertain);
  EXPECT_EQ(verdicts[2], wsk::kUncertain);
  EXPECT_EQ(verdicts[3], static_cast<int64_t>(100 * kMiB));
}

}  // namespace
}  // namespace oasis
