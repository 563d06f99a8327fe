// Process-level observability knobs.
//
// ObsConfig collects the environment-controlled knobs (OASIS_TRACE,
// OASIS_METRICS, OASIS_TRACE_CAPACITY, OASIS_LOG_LEVEL, OASIS_SEED,
// OASIS_PROF — rows of the table in src/common/knobs.h). A binary's
// check::RunScope (src/check/run_scope.h) reads it, installs the requested
// collectors and the wall-clock profiler for the duration of main, and
// reports the collected data on the way out, so
//
//     OASIS_TRACE=trace.json ./build/bench/fig05_consolidation_latency
//     OASIS_PROF=summary ./build/bench/table1_power_profiles
//
// emit a Perfetto-loadable trace and a profile report with zero further
// plumbing.

#ifndef OASIS_SRC_OBS_OBS_H_
#define OASIS_SRC_OBS_OBS_H_

#include <cstdint>
#include <optional>
#include <string>

#include "src/common/log.h"
#include "src/obs/metrics.h"
#include "src/obs/prof.h"
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
  prof::ProfMode prof_mode = prof::ProfMode::kOff;

  bool TracingRequested() const { return !trace_path.empty(); }
  bool MetricsRequested() const { return !metrics_path.empty(); }
  bool ProfilingRequested() const { return prof_mode != prof::ProfMode::kOff; }
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

}  // namespace obs
}  // namespace oasis

#endif  // OASIS_SRC_OBS_OBS_H_
