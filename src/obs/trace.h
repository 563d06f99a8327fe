// Sim-time span tracer.
//
// Components record begin/end/complete/instant/counter events stamped with
// the simulated clock into a bounded ring buffer (oldest events are dropped
// under pressure, never the newest). The buffer exports as Chrome
// `trace_event` JSON — loadable in Perfetto / chrome://tracing, with each
// host rendered as its own track — or as JSONL for ad-hoc scripting.
//
// Category and name strings must be string literals (or otherwise outlive
// the tracer): events store the pointers, not copies, so recording stays
// allocation-free. Instrumentation sites gate on Tracer::IfEnabled(), a
// single relaxed atomic load, so disabled tracing costs one branch.
// The simulation is single-threaded; the tracer is not synchronized.

#ifndef OASIS_SRC_OBS_TRACE_H_
#define OASIS_SRC_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/units.h"

namespace oasis {
namespace obs {

// Optional structured payload carried by an event. -1 means "not set".
struct TraceArgs {
  int64_t host = -1;
  int64_t vm = -1;
  int64_t bytes = -1;
};

enum class TracePhase : char {
  kComplete = 'X',  // span with explicit duration
  kBegin = 'B',     // nesting span open...
  kEnd = 'E',       // ...and close
  kInstant = 'i',
  kCounter = 'C',
};

struct TraceEvent {
  TracePhase phase = TracePhase::kInstant;
  const char* category = "";
  const char* name = "";
  int64_t ts_us = 0;   // simulated microseconds
  int64_t dur_us = 0;  // kComplete only
  int64_t value = 0;   // kCounter only
  TraceArgs args;
};

class Tracer {
 public:
  static constexpr size_t kDefaultCapacity = 1 << 16;

  explicit Tracer(size_t capacity = kDefaultCapacity);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  // Drops all recorded events; optionally resizes the ring.
  void Clear();
  void SetCapacity(size_t capacity);
  size_t capacity() const { return capacity_; }

  // --- recording (no-ops while disabled) ----------------------------------
  // A span known in full when recorded (most sim spans: both endpoints are
  // computed up front).
  void Complete(const char* category, const char* name, SimTime start, SimTime end,
                TraceArgs args = {});
  // Nesting open/close pair; nests per track by timestamp order.
  void Begin(const char* category, const char* name, SimTime at, TraceArgs args = {});
  void End(const char* category, const char* name, SimTime at, TraceArgs args = {});
  void Instant(const char* category, const char* name, SimTime at, TraceArgs args = {});
  // A sampled counter track (e.g. event-queue depth over sim time).
  void CounterValue(const char* category, const char* name, SimTime at, int64_t value);

  // --- inspection ----------------------------------------------------------
  size_t size() const { return total_ < capacity_ ? static_cast<size_t>(total_) : capacity_; }
  uint64_t total_recorded() const { return total_ + merged_dropped_; }
  uint64_t dropped() const { return total_ - size() + merged_dropped_; }
  // Oldest-first copy of the retained events.
  std::vector<TraceEvent> Events() const;

  // --- export --------------------------------------------------------------
  // Chrome trace_event "JSON Object Format": {"traceEvents": [...]}.
  void ExportChromeJson(std::ostream& out) const;
  Status ExportChromeJsonFile(const std::string& path) const;
  // One JSON object per line.
  void ExportJsonl(std::ostream& out) const;
  Status ExportJsonlFile(const std::string& path) const;

  // Appends `other`'s retained events (oldest first) to this ring and folds
  // `other`'s drop count into this tracer's, so both the retained suffix and
  // the dropped/total counters match a serial execution when the experiment
  // runner merges run-local tracers in plan order.
  void MergeFrom(const Tracer& other);

  // --- process-wide wiring -------------------------------------------------
  static Tracer& Global();
  // The enabled tracer for this thread, nullptr otherwise — the hot-path
  // gate. A thread running under an installed obs::RunContext resolves to
  // the run-local tracer; everything else gets the global:
  //   if (obs::Tracer* t = obs::Tracer::IfEnabled()) t->Complete(...);
  static Tracer* IfEnabled();

 private:
  void Push(const TraceEvent& event);
  void WriteEventJson(std::ostream& out, const TraceEvent& event) const;

  std::atomic<bool> enabled_{false};
  size_t capacity_;
  std::vector<TraceEvent> ring_;  // allocated on first use
  uint64_t total_ = 0;            // events pushed here; ring_[total_ % capacity_] is next
  uint64_t merged_dropped_ = 0;   // events a MergeFrom source had already dropped
};

}  // namespace obs
}  // namespace oasis

#endif  // OASIS_SRC_OBS_TRACE_H_
