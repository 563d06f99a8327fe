#include "src/common/stats.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>

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

namespace {

// A signed integer that orders doubles as IEEE 754 totalOrder does: -0.0
// before +0.0, the (positive) quiet NaN after +inf.
int64_t OrderKey(double x) {
  const int64_t bits = std::bit_cast<int64_t>(x);
  return bits ^ static_cast<int64_t>(static_cast<uint64_t>(bits >> 63) >> 1);
}

// The home slot of a value in a table of mask + 1 (a power of two) slots:
// Fibonacci hashing, which keeps the product's top bits because only they
// depend on every bit of the value. (Round values such as 2.5 or 6.0 differ
// only in their high bits.)
size_t HomeSlot(uint64_t bits, size_t mask) {
  return static_cast<size_t>((bits * 0x9E3779B97F4A7C15ull) >> std::countl_zero(mask));
}

}  // namespace

void EmpiricalCdf::SeekRun(uint64_t bits) {
  // Every NaN is stored as the one quiet NaN, so NaNs share one run.
  if (std::isnan(std::bit_cast<double>(bits))) {
    bits = std::bit_cast<uint64_t>(std::numeric_limits<double>::quiet_NaN());
  }
  last_ = FindOrInsert(bits);
  last_bits_ = bits;
}

size_t EmpiricalCdf::FindOrInsert(uint64_t bits) {
  // Keep the table at most half full.
  if (2 * (runs_.size() + 1) > slots_.size()) {
    Rehash(std::max<size_t>(16, 2 * slots_.size()));
  }
  const size_t mask = slots_.size() - 1;
  for (size_t i = HomeSlot(bits, mask);; i = (i + 1) & mask) {
    const uint32_t slot = slots_[i];
    if (slot == 0) {
      assert(runs_.size() < UINT32_MAX);
      runs_.push_back({std::bit_cast<double>(bits), 0});
      slots_[i] = static_cast<uint32_t>(runs_.size());
      return runs_.size() - 1;
    }
    if (std::bit_cast<uint64_t>(runs_[slot - 1].value) == bits) {
      return slot - 1;
    }
  }
}

void EmpiricalCdf::Rehash(size_t slots) {
  slots_.assign(slots, 0);
  const size_t mask = slots - 1;
  for (size_t r = 0; r < runs_.size(); ++r) {
    size_t i = HomeSlot(std::bit_cast<uint64_t>(runs_[r].value), mask);
    while (slots_[i] != 0) {
      i = (i + 1) & mask;
    }
    slots_[i] = static_cast<uint32_t>(r + 1);
  }
}

void EmpiricalCdf::EnsureOrdered() const {
  if (!stale_) {
    return;
  }
  // Runs added since the last query join the order by a sort of the new
  // tail and a merge.
  const size_t ordered = order_.size();
  if (ordered != runs_.size()) {
    order_.resize(runs_.size());
    std::iota(order_.begin() + static_cast<std::ptrdiff_t>(ordered), order_.end(),
              static_cast<uint32_t>(ordered));
    auto ascending = [this](uint32_t a, uint32_t b) {
      return OrderKey(runs_[a].value) < OrderKey(runs_[b].value);
    };
    const auto tail = order_.begin() + static_cast<std::ptrdiff_t>(ordered);
    std::sort(tail, order_.end(), ascending);
    std::inplace_merge(order_.begin(), tail, order_.end(), ascending);
  }
  cum_.resize(order_.size());
  size_t total = 0;
  for (size_t i = 0; i < order_.size(); ++i) {
    total += runs_[order_[i]].count;
    cum_[i] = total;
  }
  stale_ = false;
}

double EmpiricalCdf::Quantile(double q) const {
  assert(count_ > 0);
  EnsureOrdered();
  q = std::clamp(q, 0.0, 1.0);
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(count_)));
  if (rank > 0) {
    --rank;
  }
  rank = std::min(rank, count_ - 1);
  const auto at = std::upper_bound(cum_.begin(), cum_.end(), rank);
  return runs_[order_[static_cast<size_t>(at - cum_.begin())]].value;
}

double EmpiricalCdf::FractionAtOrBelow(double x) const {
  if (count_ == 0 || std::isnan(x)) {
    return 0.0;
  }
  EnsureOrdered();
  // The NaN run, if any, is last and never <= x.
  auto end = order_.end();
  if (std::isnan(runs_[order_.back()].value)) {
    --end;
  }
  const auto above = std::upper_bound(order_.begin(), end, x,
                                      [this](double v, uint32_t r) { return v < runs_[r].value; });
  const size_t runs_at_or_below = static_cast<size_t>(above - order_.begin());
  const size_t at_or_below = runs_at_or_below == 0 ? 0 : cum_[runs_at_or_below - 1];
  return static_cast<double>(at_or_below) / static_cast<double>(count_);
}

double EmpiricalCdf::Mean() const {
  if (count_ == 0) {
    return 0.0;
  }
  EnsureOrdered();
  double s = 0.0;
  for (uint32_t r : order_) {
    s += runs_[r].value * static_cast<double>(runs_[r].count);
  }
  return s / static_cast<double>(count_);
}

double EmpiricalCdf::Min() const {
  EnsureOrdered();
  return count_ == 0 ? 0.0 : runs_[order_.front()].value;
}

double EmpiricalCdf::Max() const {
  EnsureOrdered();
  return count_ == 0 ? 0.0 : runs_[order_.back()].value;
}

std::vector<std::pair<double, double>> EmpiricalCdf::Curve(size_t points) const {
  std::vector<std::pair<double, double>> out;
  if (count_ == 0 || points == 0) {
    return out;
  }
  EnsureOrdered();
  out.reserve(points);
  // Ranks only grow, so one pass over the cumulative counts serves them all.
  size_t position = 0;
  for (size_t i = 1; i <= points; ++i) {
    double frac = static_cast<double>(i) / static_cast<double>(points);
    size_t rank = std::min(count_ - 1, static_cast<size_t>(frac * static_cast<double>(count_)));
    while (cum_[position] <= rank) {
      ++position;
    }
    out.emplace_back(runs_[order_[position]].value, frac);
  }
  return out;
}

EmpiricalCdf::SortedSamples EmpiricalCdf::sorted_samples() const {
  EnsureOrdered();
  return SortedSamples(this);
}

}  // namespace oasis
