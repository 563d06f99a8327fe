// Streaming statistics and empirical CDFs used by every experiment
// harness.

#ifndef OASIS_SRC_COMMON_STATS_H_
#define OASIS_SRC_COMMON_STATS_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <utility>
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

// Exact empirical distribution, stored run-length: one entry per distinct
// value, keyed by its bit pattern, with the number of times it was added.
// Storage is O(distinct values), not O(samples): a rack-day's ~10^4
// transition delays take at most a few hundred distinct values. Add is O(1)
// amortized (a check of the last value, then a small open-addressing hash);
// the ascending order and cumulative counts are built lazily by the first
// query after an Add. Every query answers exactly as it would over the
// expanded, sorted sample sequence.
//
// Ordering policy: values sort ascending; -0.0 and +0.0 are kept apart by
// bit pattern and -0.0 sorts first. Every NaN is stored as the one quiet NaN
// and sorts after +inf. No value is <= NaN, so NaN samples are never
// counted by FractionAtOrBelow, and FractionAtOrBelow(NaN) is 0.
class EmpiricalCdf {
  struct Run {
    double value;
    size_t count;
  };

 public:
  // The samples in ascending order, expanded from the runs as they are read.
  // Valid until the next Add.
  class SortedSamples {
   public:
    class Iterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = double;
      using difference_type = std::ptrdiff_t;
      using pointer = const double*;
      using reference = const double&;

      Iterator() = default;
      reference operator*() const { return run().value; }
      Iterator& operator++() {
        if (++repeat_ == run().count) {
          ++position_;
          repeat_ = 0;
        }
        return *this;
      }
      Iterator operator++(int) {
        Iterator before = *this;
        ++*this;
        return before;
      }
      bool operator==(const Iterator&) const = default;

     private:
      friend class SortedSamples;
      Iterator(const EmpiricalCdf* cdf, size_t position) : cdf_(cdf), position_(position) {}
      const Run& run() const { return cdf_->runs_[cdf_->order_[position_]]; }

      const EmpiricalCdf* cdf_ = nullptr;
      size_t position_ = 0;  // index into the ascending order
      size_t repeat_ = 0;    // copies of that value already passed
    };
    using iterator = Iterator;
    using const_iterator = Iterator;

    explicit SortedSamples(const EmpiricalCdf* cdf) : cdf_(cdf) {}
    Iterator begin() const { return Iterator(cdf_, 0); }
    Iterator end() const { return Iterator(cdf_, cdf_->order_.size()); }

    friend bool operator==(const SortedSamples& a, const SortedSamples& b) {
      return std::equal(a.begin(), a.end(), b.begin(), b.end());
    }

   private:
    const EmpiricalCdf* cdf_;
  };

  void Add(double x) { AddN(x, 1); }
  // Inline: most adds repeat the last value.
  void AddN(double x, size_t n) {
    if (n == 0) {
      return;
    }
    const uint64_t bits = std::bit_cast<uint64_t>(x);
    if (bits != last_bits_ || runs_.empty()) {
      SeekRun(bits);
    }
    runs_[last_].count += n;
    count_ += n;
    stale_ = true;
  }

  size_t count() const { return count_; }
  bool empty() const { return count_ == 0; }
  // Entries stored: one per distinct value (bit pattern) added.
  size_t distinct_values() const { return runs_.size(); }

  // Value at quantile q in [0, 1] (q=0.5 is the median). Uses the
  // nearest-rank definition. Requires at least one sample.
  double Quantile(double q) const;

  // Fraction of samples <= x.
  double FractionAtOrBelow(double x) const;

  // Sum of value x count over the distinct values in ascending order,
  // divided by count().
  double Mean() const;
  double Min() const;
  double Max() const;

  // (value, cumulative fraction) pairs at the given number of evenly spaced
  // ranks — convenient for printing a CDF series.
  std::vector<std::pair<double, double>> Curve(size_t points) const;

  SortedSamples sorted_samples() const;

 private:
  void SeekRun(uint64_t bits);
  size_t FindOrInsert(uint64_t bits);
  void Rehash(size_t slots);
  void EnsureOrdered() const;

  std::vector<Run> runs_;        // distinct values, in first-added order
  std::vector<uint32_t> slots_;  // hash of value bits -> run index + 1; 0 is empty
  size_t count_ = 0;
  // The run the last Add went to and its key; set by the first Add.
  uint64_t last_bits_ = 0;
  size_t last_ = 0;

  // Built lazily for queries: run indices in ascending value order, and the
  // cumulative count through each position of that order.
  mutable std::vector<uint32_t> order_;
  mutable std::vector<size_t> cum_;
  mutable bool stale_ = false;
};

}  // namespace oasis

#endif  // OASIS_SRC_COMMON_STATS_H_
