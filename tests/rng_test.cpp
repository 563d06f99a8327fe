#include "src/common/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace oasis {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, NextBelowInRangeAndRoughlyUniform) {
  Rng rng(7);
  std::vector<int> buckets(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    uint64_t v = rng.NextBelow(10);
    ASSERT_LT(v, 10u);
    ++buckets[v];
  }
  for (int b : buckets) {
    EXPECT_NEAR(b, n / 10, n / 100);  // within 10% relative
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(99);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
  }
}

TEST(RngTest, NextRangeRespectsBounds) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextRange(-3.0, 7.0);
    ASSERT_GE(d, -3.0);
    ASSERT_LT(d, 7.0);
  }
}

TEST(RngTest, GaussianMomentsMatch) {
  Rng rng(11);
  double sum = 0.0;
  double sum2 = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    double g = rng.NextGaussian(10.0, 3.0);
    sum += g;
    sum2 += g * g;
  }
  double mean = sum / n;
  double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 3.0, 0.05);
}

TEST(RngTest, ExponentialMeanMatches) {
  Rng rng(13);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    double e = rng.NextExponential(42.0);
    ASSERT_GE(e, 0.0);
    sum += e;
  }
  EXPECT_NEAR(sum / n, 42.0, 0.8);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(23);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.NextBool(0.3)) {
      ++hits;
    }
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

}  // namespace
}  // namespace oasis
