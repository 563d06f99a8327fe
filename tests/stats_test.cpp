#include "src/common/stats.h"

#include <gtest/gtest.h>

#include <cmath>

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

}  // namespace
}  // namespace oasis
