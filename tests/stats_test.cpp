#include "src/common/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "src/common/rng.h"

namespace oasis {
namespace {

TEST(OnlineStatsTest, EmptyIsZero) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
}

TEST(OnlineStatsTest, BasicMoments) {
  OnlineStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.Add(x);
  }
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(OnlineStatsTest, SampleVarianceUsesBesselCorrection) {
  OnlineStats s;
  s.Add(1.0);
  s.Add(3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 1.0);
  EXPECT_DOUBLE_EQ(s.sample_variance(), 2.0);
}

TEST(OnlineStatsTest, MergeEqualsCombinedStream) {
  OnlineStats a;
  OnlineStats b;
  OnlineStats all;
  for (int i = 0; i < 100; ++i) {
    double x = std::sin(i) * 10.0;
    (i % 2 == 0 ? a : b).Add(x);
    all.Add(x);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(OnlineStatsTest, MergeWithEmpty) {
  OnlineStats a;
  a.Add(5.0);
  OnlineStats empty;
  a.Merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.Merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 5.0);
}

TEST(EmpiricalCdfTest, QuantilesOnKnownData) {
  EmpiricalCdf cdf;
  for (int i = 1; i <= 100; ++i) {
    cdf.Add(i);
  }
  EXPECT_DOUBLE_EQ(cdf.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.Quantile(0.5), 50.0);
  EXPECT_DOUBLE_EQ(cdf.Quantile(0.99), 99.0);
  EXPECT_DOUBLE_EQ(cdf.Quantile(1.0), 100.0);
  EXPECT_DOUBLE_EQ(cdf.Min(), 1.0);
  EXPECT_DOUBLE_EQ(cdf.Max(), 100.0);
  EXPECT_DOUBLE_EQ(cdf.Mean(), 50.5);
}

TEST(EmpiricalCdfTest, FractionAtOrBelow) {
  EmpiricalCdf cdf;
  for (int i = 1; i <= 10; ++i) {
    cdf.Add(i);
  }
  EXPECT_DOUBLE_EQ(cdf.FractionAtOrBelow(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.FractionAtOrBelow(5.0), 0.5);
  EXPECT_DOUBLE_EQ(cdf.FractionAtOrBelow(10.0), 1.0);
}

TEST(EmpiricalCdfTest, AddNWeightsSamples) {
  EmpiricalCdf cdf;
  cdf.AddN(1.0, 99);
  cdf.Add(100.0);
  EXPECT_EQ(cdf.count(), 100u);
  EXPECT_DOUBLE_EQ(cdf.Quantile(0.5), 1.0);
  EXPECT_DOUBLE_EQ(cdf.Quantile(1.0), 100.0);
}

TEST(EmpiricalCdfTest, CurveIsMonotone) {
  EmpiricalCdf cdf;
  for (int i = 0; i < 1000; ++i) {
    cdf.Add((i * 37) % 101);
  }
  auto curve = cdf.Curve(20);
  ASSERT_EQ(curve.size(), 20u);
  for (size_t i = 1; i < curve.size(); ++i) {
    EXPECT_LE(curve[i - 1].first, curve[i].first);
    EXPECT_LT(curve[i - 1].second, curve[i].second);
  }
  EXPECT_DOUBLE_EQ(curve.back().second, 1.0);
}

TEST(EmpiricalCdfTest, InterleavedAddAndQuery) {
  EmpiricalCdf cdf;
  cdf.Add(5.0);
  EXPECT_DOUBLE_EQ(cdf.Quantile(0.5), 5.0);
  cdf.Add(1.0);
  cdf.Add(9.0);
  EXPECT_DOUBLE_EQ(cdf.Quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(cdf.Min(), 1.0);
}

// The definition the run-length CDF must reproduce exactly: every sample
// stored, sorted, and read by nearest rank. It lives only here.
class ReferenceCdf {
 public:
  void AddN(double x, size_t n) { samples_.insert(samples_.end(), n, x); }
  void Sort() { std::sort(samples_.begin(), samples_.end()); }
  bool empty() const { return samples_.empty(); }
  const std::vector<double>& samples() const { return samples_; }
  double Quantile(double q) const {
    q = std::clamp(q, 0.0, 1.0);
    size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(samples_.size())));
    if (rank > 0) {
      --rank;
    }
    return samples_[std::min(rank, samples_.size() - 1)];
  }
  double FractionAtOrBelow(double x) const {
    auto it = std::upper_bound(samples_.begin(), samples_.end(), x);
    return static_cast<double>(it - samples_.begin()) / static_cast<double>(samples_.size());
  }
  double Mean() const {
    double s = 0.0;
    for (double x : samples_) {
      s += x;
    }
    return s / static_cast<double>(samples_.size());
  }
  std::vector<std::pair<double, double>> Curve(size_t points) const {
    std::vector<std::pair<double, double>> out;
    for (size_t i = 1; i <= points; ++i) {
      double frac = static_cast<double>(i) / static_cast<double>(points);
      size_t idx = std::min(samples_.size() - 1,
                            static_cast<size_t>(frac * static_cast<double>(samples_.size())));
      out.emplace_back(samples_[idx], frac);
    }
    return out;
  }

 private:
  std::vector<double> samples_;
};

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

// Every query of `cdf` against the reference, compared bit for bit.
void ExpectSameAsReference(const EmpiricalCdf& cdf, ReferenceCdf& ref, Rng& rng) {
  ref.Sort();
  const std::vector<double>& sorted = ref.samples();
  ASSERT_EQ(cdf.count(), sorted.size());
  ASSERT_FALSE(cdf.empty());
  size_t i = 0;
  for (double x : cdf.sorted_samples()) {
    ASSERT_LT(i, sorted.size());
    ASSERT_EQ(Bits(x), Bits(sorted[i])) << "sample " << i;
    ++i;
  }
  EXPECT_EQ(i, sorted.size());
  EXPECT_EQ(Bits(cdf.Min()), Bits(sorted.front()));
  EXPECT_EQ(Bits(cdf.Max()), Bits(sorted.back()));
  EXPECT_NEAR(cdf.Mean(), ref.Mean(), 1e-9 * (1.0 + std::abs(ref.Mean())));

  std::vector<double> qs = {0.0, 1e-12, 0.1, 0.25, 0.5, 0.9, 0.99, 0.9999, 1.0, -1.0, 2.0};
  for (int k = 0; k < 20; ++k) {
    qs.push_back(rng.NextDouble());
  }
  for (double q : qs) {
    EXPECT_EQ(Bits(cdf.Quantile(q)), Bits(ref.Quantile(q))) << "q=" << q;
  }

  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> xs = {-inf, inf, 0.0};
  for (size_t k = 0; k < sorted.size(); k += 1 + sorted.size() / 64) {
    xs.push_back(sorted[k]);
    xs.push_back(std::nextafter(sorted[k], -inf));
    xs.push_back(std::nextafter(sorted[k], inf));
  }
  for (double x : xs) {
    EXPECT_EQ(Bits(cdf.FractionAtOrBelow(x)), Bits(ref.FractionAtOrBelow(x))) << "x=" << x;
  }

  for (size_t points : {size_t{1}, size_t{7}, size_t{200}, sorted.size() + 3}) {
    auto got = cdf.Curve(points);
    auto want = ref.Curve(points);
    ASSERT_EQ(got.size(), want.size());
    for (size_t p = 0; p < got.size(); ++p) {
      EXPECT_EQ(Bits(got[p].first), Bits(want[p].first)) << points << " points, #" << p;
      EXPECT_EQ(Bits(got[p].second), Bits(want[p].second)) << points << " points, #" << p;
    }
  }
}

// A value from one of the differential streams. `pool` > 0 draws from that
// many distinct values (heavy duplication); 0 draws fresh doubles of both
// signs, essentially all distinct.
double Draw(Rng& rng, uint64_t pool) {
  if (pool == 0) {
    return rng.NextRange(-1e6, 1e6);
  }
  return 0.25 * static_cast<double>(rng.NextBelow(pool)) - 3.0;
}

TEST(EmpiricalCdfTest, MatchesStoreEverySampleReference) {
  struct Stream {
    const char* name;
    uint64_t pool;
    size_t adds;
    size_t query_every;  // 0: query once at the end
    bool add_n;
  };
  const Stream streams[] = {
      {"heavy duplication", 5, 4000, 0, false},
      {"all distinct", 0, 3000, 0, false},
      {"interleaved, duplicated", 40, 1500, 37, false},
      {"interleaved, distinct", 0, 800, 23, false},
      {"AddN, duplicated", 12, 600, 0, true},
      {"AddN interleaved", 200, 600, 41, true},
  };
  for (const Stream& stream : streams) {
    SCOPED_TRACE(stream.name);
    Rng rng(0x5EED0000 + stream.adds);
    EmpiricalCdf cdf;
    ReferenceCdf ref;
    for (size_t a = 1; a <= stream.adds; ++a) {
      const double x = Draw(rng, stream.pool);
      if (stream.add_n) {
        const size_t n = rng.NextBelow(6);  // 0 adds nothing
        cdf.AddN(x, n);
        ref.AddN(x, n);
      } else {
        cdf.Add(x);
        ref.AddN(x, 1);
      }
      if (stream.query_every > 0 && a % stream.query_every == 0 && !ref.empty()) {
        ExpectSameAsReference(cdf, ref, rng);
      }
    }
    ExpectSameAsReference(cdf, ref, rng);
    if (stream.pool > 0) {
      EXPECT_LE(cdf.distinct_values(), stream.pool);
    }
  }
}

// Storage grows with the distinct values, not with the samples.
TEST(EmpiricalCdfTest, StorageIsOneEntryPerDistinctValue) {
  EmpiricalCdf cdf;
  for (int i = 0; i < 200000; ++i) {
    cdf.Add(static_cast<double>((i * 7919) % 37));
  }
  cdf.AddN(1e9, 1000000);
  EXPECT_EQ(cdf.count(), 1200000u);
  EXPECT_EQ(cdf.distinct_values(), 38u);
  EXPECT_DOUBLE_EQ(cdf.Quantile(1.0), 1e9);
  EXPECT_DOUBLE_EQ(cdf.FractionAtOrBelow(36.0), 200000.0 / 1200000.0);
}

// Add stays O(1) amortized even when every value is new: 16x the distinct
// values costs about 16x the time, where a sorted insert would cost ~256x.
// Each size takes its best of five runs, so a busy machine does not flake it.
TEST(EmpiricalCdfTest, AddOfNewValuesIsAmortizedConstant) {
  auto best_seconds = [](size_t n) {
    std::vector<double> values(n);
    for (size_t i = 0; i < n; ++i) {
      values[i] = static_cast<double>((i * 2654435761u) % n);  // a scrambled permutation
    }
    double best = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < 5; ++rep) {
      EmpiricalCdf cdf;
      const auto start = std::chrono::steady_clock::now();
      for (double v : values) {
        cdf.Add(v);
      }
      const std::chrono::duration<double> took = std::chrono::steady_clock::now() - start;
      EXPECT_EQ(cdf.distinct_values(), n);
      best = std::min(best, took.count());
    }
    return best;
  };
  const double small = best_seconds(size_t{1} << 12);
  const double large = best_seconds(size_t{1} << 16);
  EXPECT_LT(large, 64.0 * small) << small << " s for 2^12 adds, " << large << " s for 2^16";
}

// Policy: -0.0 and +0.0 are equal values kept apart by bit pattern, -0.0
// first; both are at or below either zero.
TEST(EmpiricalCdfTest, SignedZerosAreKeptApartNegativeFirst) {
  EmpiricalCdf cdf;
  cdf.Add(0.0);
  cdf.Add(-0.0);
  cdf.Add(0.0);
  cdf.Add(1.0);
  EXPECT_EQ(cdf.distinct_values(), 3u);
  std::vector<uint64_t> bits;
  for (double x : cdf.sorted_samples()) {
    bits.push_back(Bits(x));
  }
  EXPECT_EQ(bits, (std::vector<uint64_t>{Bits(-0.0), Bits(0.0), Bits(0.0), Bits(1.0)}));
  EXPECT_EQ(Bits(cdf.Min()), Bits(-0.0));
  EXPECT_EQ(Bits(cdf.Quantile(0.25)), Bits(-0.0));
  EXPECT_EQ(Bits(cdf.Quantile(0.5)), Bits(0.0));
  EXPECT_DOUBLE_EQ(cdf.FractionAtOrBelow(-0.0), 0.75);
  EXPECT_DOUBLE_EQ(cdf.FractionAtOrBelow(0.0), 0.75);
  EXPECT_DOUBLE_EQ(cdf.FractionAtOrBelow(-1e-300), 0.0);
}

// Policy: every NaN joins one run of the quiet NaN, which sorts after +inf
// and is never at or below anything; nothing is at or below NaN.
TEST(EmpiricalCdfTest, NaNsShareOneRunThatSortsLast) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EmpiricalCdf cdf;
  cdf.Add(std::bit_cast<double>(~uint64_t{0}));  // a NaN with every payload bit set
  cdf.Add(2.0);
  cdf.Add(-nan);
  cdf.Add(nan);
  cdf.Add(std::bit_cast<double>(uint64_t{0x7FF8000000000123}));
  cdf.Add(std::numeric_limits<double>::infinity());
  EXPECT_EQ(cdf.count(), 6u);
  EXPECT_EQ(cdf.distinct_values(), 3u);
  std::vector<uint64_t> bits;
  for (double x : cdf.sorted_samples()) {
    bits.push_back(Bits(x));
  }
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(bits, (std::vector<uint64_t>{Bits(2.0), Bits(inf), Bits(nan), Bits(nan), Bits(nan),
                                         Bits(nan)}));
  EXPECT_DOUBLE_EQ(cdf.Min(), 2.0);
  EXPECT_TRUE(std::isnan(cdf.Max()));
  EXPECT_EQ(cdf.Quantile(0.3), inf);
  EXPECT_TRUE(std::isnan(cdf.Quantile(0.35)));
  EXPECT_DOUBLE_EQ(cdf.FractionAtOrBelow(inf), 2.0 / 6.0);
  EXPECT_DOUBLE_EQ(cdf.FractionAtOrBelow(nan), 0.0);
}

TEST(EmpiricalCdfTest, SortedSampleViewsCompareByExpandedSequence) {
  EmpiricalCdf a;
  EmpiricalCdf b;
  a.AddN(3.0, 2);
  a.Add(1.0);
  b.Add(1.0);
  b.Add(3.0);
  EXPECT_FALSE(a.sorted_samples() == b.sorted_samples());
  b.Add(3.0);
  EXPECT_EQ(a.sorted_samples(), b.sorted_samples());
  EmpiricalCdf empty;
  EmpiricalCdf also_empty;
  EXPECT_EQ(empty.sorted_samples(), also_empty.sorted_samples());
  EXPECT_EQ(empty.sorted_samples().begin(), empty.sorted_samples().end());
  EXPECT_FALSE(empty.sorted_samples() == a.sorted_samples());
}

}  // namespace
}  // namespace oasis
