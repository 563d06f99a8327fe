// Named runtime metrics: counters, gauges and HDR-style log-linear
// histograms, collected in a process-wide registry and exportable as CSV.
//
// The registry is designed for hot-path instrumentation: sites cache the
// Counter/Gauge/Histogram pointer once (objects are never deleted or moved
// after creation) and gate the update on MetricsRegistry::IfEnabled(), a
// thread-local read and a relaxed atomic load, so a disabled build path costs
// one predictable branch.
// The simulation is single-threaded; metric updates are not synchronized.

#ifndef OASIS_SRC_OBS_METRICS_H_
#define OASIS_SRC_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace oasis {
namespace obs {

class MetricsRegistry;

// Monotone event count.
class Counter {
 public:
  void Increment(uint64_t n = 1) { value_ += n; }
  uint64_t value() const { return value_; }
  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  explicit Counter(std::string name) : name_(std::move(name)) {}
  std::string name_;
  uint64_t value_ = 0;
};

// Last-written instantaneous value (queue depth, powered hosts, ...).
class Gauge {
 public:
  void Set(double v) { value_ = v; }
  void Add(double d) { value_ += d; }
  double value() const { return value_; }
  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  explicit Gauge(std::string name) : name_(std::move(name)) {}
  std::string name_;
  double value_ = 0.0;
};

// HDR-style histogram: log-linear buckets (16 sub-buckets per power of two)
// over non-positive..2^63, giving <= ~6% relative quantile error with a
// fixed, allocation-free footprint per histogram.
class Histogram {
 public:
  void Record(double value);

  uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ ? sum_ / static_cast<double>(count_) : 0.0; }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }

  // Approximate value at percentile `pct` in [0, 100], clamped to the exact
  // observed [min, max].
  double Percentile(double pct) const;

  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  static constexpr int kSubBuckets = 16;  // per power of two
  static constexpr int kMinExp = -32;     // ~2.3e-10 lower resolution bound
  static constexpr int kMaxExp = 63;
  static constexpr size_t kNumBuckets =
      1 + static_cast<size_t>(kMaxExp - kMinExp + 1) * kSubBuckets;

  explicit Histogram(std::string name);
  static size_t BucketIndex(double value);
  static double BucketMidpoint(size_t index);

  std::string name_;
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// One exported row of the registry (CSV line / snapshot entry).
struct MetricRow {
  std::string name;
  std::string kind;  // "counter" | "gauge" | "histogram"
  uint64_t count = 0;
  double value = 0.0;  // counter value / gauge value / histogram mean
  double min = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Finds or creates the named instrument. Returned pointers stay valid for
  // the registry's lifetime (instruments are never erased), so hot paths can
  // cache them. Requesting an existing name with a different kind returns
  // nullptr.
  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  Histogram* histogram(const std::string& name);

  // Zeroes every instrument, keeping the objects (cached pointers survive).
  void ResetValues();

  // Name-sorted export of every instrument.
  std::vector<MetricRow> Snapshot() const;
  void WriteCsv(std::ostream& out) const;
  Status WriteCsvFile(const std::string& path) const;

  size_t size() const { return instruments_.size(); }

  // Folds `other` into this registry: counters add, gauges take the other's
  // value, histograms merge bucket-wise. Same-name instruments of different
  // kinds are skipped — and counted in merge_dropped(), so a silently
  // mismatched run registry is visible (prof::Report surfaces it). The
  // experiment runner calls this serially in plan order, so the merged
  // registry matches a serial execution exactly.
  void MergeFrom(const MetricsRegistry& other);

  // As above, with every incoming instrument renamed to `prefix` + name —
  // per-shard namespacing for hierarchical runs (the datacenter runner
  // merges rack 3's registry under "dc.rack3."). An empty prefix is the
  // plain merge.
  void MergeFrom(const MetricsRegistry& other, const std::string& prefix);

  // Instruments MergeFrom skipped because the destination already held the
  // same name with a different kind (includes drops the sources had already
  // counted).
  uint64_t merge_dropped() const { return merge_dropped_; }

  // Per-registry collection switch (a single relaxed atomic).
  bool enabled() const { return enabled_inst_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_inst_.store(on, std::memory_order_relaxed); }

  // --- process-wide wiring -------------------------------------------------
  // Instrumentation sites resolve through the thread's installed RunContext
  // first (run-local registries for parallel experiments) and fall back to
  // the process-global registry.
  static MetricsRegistry& Global();
  // The enabled run-local registry, else the enabled global, else nullptr.
  static MetricsRegistry* IfEnabled();

 private:
  struct Instrument {
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  std::atomic<bool> enabled_inst_{false};
  std::map<std::string, Instrument> instruments_;  // sorted for stable export
  uint64_t merge_dropped_ = 0;
};

}  // namespace obs
}  // namespace oasis

#endif  // OASIS_SRC_OBS_METRICS_H_
