#include "src/common/stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace oasis {

void OnlineStats::Add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void OnlineStats::Merge(const OnlineStats& other) {
  if (other.count_ == 0) {
    return;
  }
  if (count_ == 0) {
    *this = other;
    return;
  }
  double delta = other.mean_ - mean_;
  size_t n = count_ + other.count_;
  double na = static_cast<double>(count_);
  double nb = static_cast<double>(other.count_);
  mean_ += delta * nb / static_cast<double>(n);
  m2_ += other.m2_ + delta * delta * na * nb / static_cast<double>(n);
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  sum_ += other.sum_;
  count_ = n;
}

double OnlineStats::variance() const {
  return count_ > 0 ? m2_ / static_cast<double>(count_) : 0.0;
}

double OnlineStats::sample_variance() const {
  return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

double OnlineStats::sample_stddev() const { return std::sqrt(sample_variance()); }

void EmpiricalCdf::Add(double x) {
  samples_.push_back(x);
  sorted_ = false;
}

void EmpiricalCdf::AddN(double x, size_t n) {
  samples_.insert(samples_.end(), n, x);
  sorted_ = false;
}

void EmpiricalCdf::EnsureSorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double EmpiricalCdf::Quantile(double q) const {
  assert(!samples_.empty());
  EnsureSorted();
  q = std::clamp(q, 0.0, 1.0);
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(samples_.size())));
  if (rank > 0) {
    --rank;
  }
  rank = std::min(rank, samples_.size() - 1);
  return samples_[rank];
}

double EmpiricalCdf::FractionAtOrBelow(double x) const {
  if (samples_.empty()) {
    return 0.0;
  }
  EnsureSorted();
  auto it = std::upper_bound(samples_.begin(), samples_.end(), x);
  return static_cast<double>(it - samples_.begin()) / static_cast<double>(samples_.size());
}

double EmpiricalCdf::Mean() const {
  if (samples_.empty()) {
    return 0.0;
  }
  double s = 0.0;
  for (double x : samples_) {
    s += x;
  }
  return s / static_cast<double>(samples_.size());
}

double EmpiricalCdf::Min() const {
  EnsureSorted();
  return samples_.empty() ? 0.0 : samples_.front();
}

double EmpiricalCdf::Max() const {
  EnsureSorted();
  return samples_.empty() ? 0.0 : samples_.back();
}

std::vector<std::pair<double, double>> EmpiricalCdf::Curve(size_t points) const {
  std::vector<std::pair<double, double>> out;
  if (samples_.empty() || points == 0) {
    return out;
  }
  EnsureSorted();
  out.reserve(points);
  for (size_t i = 1; i <= points; ++i) {
    double frac = static_cast<double>(i) / static_cast<double>(points);
    size_t idx = std::min(samples_.size() - 1,
                          static_cast<size_t>(frac * static_cast<double>(samples_.size())));
    out.emplace_back(samples_[idx], frac);
  }
  return out;
}

const std::vector<double>& EmpiricalCdf::sorted_samples() const {
  EnsureSorted();
  return samples_;
}

}  // namespace oasis
