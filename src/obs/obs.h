// Process-level observability wiring.
//
// ObsConfig collects the environment-controlled knobs; ObsScope installs them
// on the global Tracer / MetricsRegistry for the duration of a binary's main
// and exports the collected data on the way out. Every bench/ and examples/
// binary opens an ObsScope first thing, so
//
//     OASIS_TRACE=trace.json ./build/bench/fig05_consolidation_latency
//
// emits a Perfetto-loadable trace with zero further plumbing.
//
// Its knobs (OASIS_TRACE, OASIS_METRICS, OASIS_TRACE_CAPACITY,
// OASIS_LOG_LEVEL, OASIS_SEED) are rows of the table in src/common/knobs.h.

#ifndef OASIS_SRC_OBS_OBS_H_
#define OASIS_SRC_OBS_OBS_H_

#include <cstdint>
#include <optional>
#include <string>

#include "src/common/log.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace oasis {
namespace obs {

struct ObsConfig {
  std::string trace_path;    // empty = tracing disabled
  std::string metrics_path;  // empty = metrics disabled
  size_t trace_capacity = Tracer::kDefaultCapacity;
  std::optional<LogLevel> log_level;  // unset = leave the global level alone
  bool has_seed = false;  // OASIS_SEED set
  uint64_t seed = 0;

  bool TracingRequested() const { return !trace_path.empty(); }
  bool MetricsRequested() const { return !metrics_path.empty(); }
  bool TraceIsJsonl() const;

  static ObsConfig FromEnv();
};

// Replaces *seed with the OASIS_SEED value when the env var is set (and logs
// the override so runs stay attributable). Returns true when it did.
bool ApplySeedOverride(uint64_t* seed);

// The wall-clock/timing output channel: one "[obs] "-tagged line on stderr
// (printf formatting; the newline is appended). Golden-file tests pin
// stdout byte-for-byte, so anything nondeterministic across machines —
// wall seconds, throughput, file paths — must go through here, never
// stdout. That keeps timing output free to grow without touching
// tests/golden/.
#if defined(__GNUC__) || defined(__clang__)
__attribute__((format(printf, 1, 2)))
#endif
void TimingLine(const char* format, ...);

// RAII: enables the requested global collectors on construction, exports and
// disables them on destruction (or on an explicit Flush()).
class ObsScope {
 public:
  explicit ObsScope(const ObsConfig& config = ObsConfig::FromEnv());
  ~ObsScope();
  ObsScope(const ObsScope&) = delete;
  ObsScope& operator=(const ObsScope&) = delete;

  // Writes the trace/metrics files now and disables collection. Idempotent.
  void Flush();

  const ObsConfig& config() const { return config_; }

 private:
  ObsConfig config_;
  bool flushed_ = false;
};

}  // namespace obs
}  // namespace oasis

#endif  // OASIS_SRC_OBS_OBS_H_
