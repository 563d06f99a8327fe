// Streaming statistics and empirical CDFs used by every experiment
// harness.

#ifndef OASIS_SRC_COMMON_STATS_H_
#define OASIS_SRC_COMMON_STATS_H_

#include <cstddef>
#include <vector>

namespace oasis {

// Welford's online mean / variance. O(1) space, numerically stable.
class OnlineStats {
 public:
  void Add(double x);
  void Merge(const OnlineStats& other);

  size_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  double variance() const;  // population variance
  double sample_variance() const;
  double stddev() const;
  double sample_stddev() const;
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double sum() const { return sum_; }

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

// Exact empirical distribution: stores every sample, sorts lazily.
// Fine for the sample counts our experiments produce (≤ a few million).
class EmpiricalCdf {
 public:
  void Add(double x);
  void AddN(double x, size_t n);

  size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  // Value at quantile q in [0, 1] (q=0.5 is the median). Uses the
  // nearest-rank definition. Requires at least one sample.
  double Quantile(double q) const;

  // Fraction of samples <= x.
  double FractionAtOrBelow(double x) const;

  double Mean() const;
  double Min() const;
  double Max() const;

  // (value, cumulative fraction) pairs at the given number of evenly spaced
  // ranks — convenient for printing a CDF series.
  std::vector<std::pair<double, double>> Curve(size_t points) const;

  const std::vector<double>& sorted_samples() const;

 private:
  void EnsureSorted() const;

  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
};

}  // namespace oasis

#endif  // OASIS_SRC_COMMON_STATS_H_
