#include "src/obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <fstream>

#include "src/obs/run_context.h"

namespace oasis {
namespace obs {

Histogram::Histogram(std::string name)
    : name_(std::move(name)), buckets_(kNumBuckets, 0) {}

size_t Histogram::BucketIndex(double value) {
  if (!(value > 0.0)) {
    return 0;  // zero, negatives and NaN share the underflow bucket
  }
  int exp = 0;
  double mantissa = std::frexp(value, &exp);  // value = mantissa * 2^exp, m in [0.5, 1)
  exp = std::clamp(exp, kMinExp, kMaxExp);
  int sub = static_cast<int>((mantissa - 0.5) * 2.0 * kSubBuckets);
  sub = std::clamp(sub, 0, kSubBuckets - 1);
  return 1 + static_cast<size_t>(exp - kMinExp) * kSubBuckets + static_cast<size_t>(sub);
}

double Histogram::BucketMidpoint(size_t index) {
  if (index == 0) {
    return 0.0;
  }
  size_t linear = index - 1;
  int exp = kMinExp + static_cast<int>(linear / kSubBuckets);
  int sub = static_cast<int>(linear % kSubBuckets);
  double lo = std::ldexp(0.5 + static_cast<double>(sub) / (2.0 * kSubBuckets), exp);
  double hi = std::ldexp(0.5 + static_cast<double>(sub + 1) / (2.0 * kSubBuckets), exp);
  return (lo + hi) / 2.0;
}

void Histogram::Record(double value) {
  ++buckets_[BucketIndex(value)];
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
}

double Histogram::Percentile(double pct) const {
  if (count_ == 0) {
    return 0.0;
  }
  pct = std::clamp(pct, 0.0, 100.0);
  // The extremes are tracked exactly; only interior quantiles go through the
  // log-linear approximation.
  if (pct == 0.0) {
    return min_;
  }
  if (pct == 100.0) {
    return max_;
  }
  uint64_t target = static_cast<uint64_t>(std::ceil(pct / 100.0 * static_cast<double>(count_)));
  target = std::max<uint64_t>(target, 1);
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= target) {
      return std::clamp(BucketMidpoint(i), min_, max_);
    }
  }
  return max_;
}

Counter* MetricsRegistry::counter(const std::string& name) {
  Instrument& slot = instruments_[name];
  if (slot.gauge || slot.histogram) {
    return nullptr;
  }
  if (!slot.counter) {
    slot.counter.reset(new Counter(name));
  }
  return slot.counter.get();
}

Gauge* MetricsRegistry::gauge(const std::string& name) {
  Instrument& slot = instruments_[name];
  if (slot.counter || slot.histogram) {
    return nullptr;
  }
  if (!slot.gauge) {
    slot.gauge.reset(new Gauge(name));
  }
  return slot.gauge.get();
}

Histogram* MetricsRegistry::histogram(const std::string& name) {
  Instrument& slot = instruments_[name];
  if (slot.counter || slot.gauge) {
    return nullptr;
  }
  if (!slot.histogram) {
    slot.histogram.reset(new Histogram(name));
  }
  return slot.histogram.get();
}

void MetricsRegistry::ResetValues() {
  for (auto& [name, slot] : instruments_) {
    if (slot.counter) {
      slot.counter->value_ = 0;
    }
    if (slot.gauge) {
      slot.gauge->value_ = 0.0;
    }
    if (slot.histogram) {
      Histogram& h = *slot.histogram;
      std::fill(h.buckets_.begin(), h.buckets_.end(), 0);
      h.count_ = 0;
      h.sum_ = h.min_ = h.max_ = 0.0;
    }
  }
}

std::vector<MetricRow> MetricsRegistry::Snapshot() const {
  std::vector<MetricRow> rows;
  rows.reserve(instruments_.size());
  for (const auto& [name, slot] : instruments_) {
    MetricRow row;
    row.name = name;
    if (slot.counter) {
      row.kind = "counter";
      row.count = slot.counter->value();
      row.value = static_cast<double>(slot.counter->value());
    } else if (slot.gauge) {
      row.kind = "gauge";
      row.count = 1;
      row.value = slot.gauge->value();
    } else if (slot.histogram) {
      const Histogram& h = *slot.histogram;
      row.kind = "histogram";
      row.count = h.count();
      row.value = h.mean();
      row.min = h.min();
      row.p50 = h.Percentile(50.0);
      row.p90 = h.Percentile(90.0);
      row.p99 = h.Percentile(99.0);
      row.max = h.max();
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

void MetricsRegistry::WriteCsv(std::ostream& out) const {
  out << "name,kind,count,value,min,p50,p90,p99,max\n";
  for (const MetricRow& row : Snapshot()) {
    out << row.name << ',' << row.kind << ',' << row.count << ',' << row.value << ','
        << row.min << ',' << row.p50 << ',' << row.p90 << ',' << row.p99 << ','
        << row.max << '\n';
  }
}

Status MetricsRegistry::WriteCsvFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return Status::InvalidArgument("cannot open metrics file: " + path);
  }
  WriteCsv(out);
  return Status::Ok();
}

void MetricsRegistry::MergeFrom(const MetricsRegistry& other) {
  MergeFrom(other, std::string());
}

void MetricsRegistry::MergeFrom(const MetricsRegistry& other,
                                const std::string& prefix) {
  merge_dropped_ += other.merge_dropped_;
  for (const auto& [source_name, slot] : other.instruments_) {
    const std::string name = prefix.empty() ? source_name : prefix + source_name;
    if (slot.counter) {
      if (Counter* c = counter(name)) {
        c->Increment(slot.counter->value());
      } else {
        ++merge_dropped_;
      }
    } else if (slot.gauge) {
      if (Gauge* g = gauge(name)) {
        g->Set(slot.gauge->value());
      } else {
        ++merge_dropped_;
      }
    } else if (slot.histogram) {
      Histogram* h = histogram(name);
      if (h == nullptr) {
        ++merge_dropped_;
        continue;
      }
      const Histogram& o = *slot.histogram;
      if (o.count_ == 0) {
        continue;
      }
      for (size_t i = 0; i < o.buckets_.size(); ++i) {
        h->buckets_[i] += o.buckets_[i];
      }
      if (h->count_ == 0) {
        h->min_ = o.min_;
        h->max_ = o.max_;
      } else {
        h->min_ = std::min(h->min_, o.min_);
        h->max_ = std::max(h->max_, o.max_);
      }
      h->count_ += o.count_;
      h->sum_ += o.sum_;
    }
  }
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();  // never destroyed
  return *registry;
}

MetricsRegistry* MetricsRegistry::IfEnabled() {
  if (RunContext* context = RunContext::Current()) {
    MetricsRegistry& local = context->metrics();
    return local.enabled() ? &local : nullptr;
  }
  MetricsRegistry& global = Global();
  return global.enabled() ? &global : nullptr;
}

}  // namespace obs
}  // namespace oasis
