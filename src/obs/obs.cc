#include "src/obs/obs.h"

#include <cstdarg>
#include <cstdio>

#include "src/common/knobs.h"
#include "src/common/log.h"

namespace oasis {
namespace obs {
namespace {

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

bool ObsConfig::TraceIsJsonl() const { return EndsWith(trace_path, ".jsonl"); }

ObsConfig ObsConfig::FromEnv() {
  ObsConfig config;
  config.trace_path = knobs::String(knobs::Knob::kTrace);
  config.metrics_path = knobs::String(knobs::Knob::kMetrics);
  config.trace_capacity =
      knobs::Int(knobs::Knob::kTraceCapacity).value_or(Tracer::kDefaultCapacity);
  if (std::optional<int> level = knobs::Choice(knobs::Knob::kLogLevel)) {
    config.log_level = static_cast<LogLevel>(*level);
  }
  if (std::optional<uint64_t> seed = knobs::Int(knobs::Knob::kSeed)) {
    config.has_seed = true;
    config.seed = *seed;
  }
  config.prof_mode = static_cast<prof::ProfMode>(knobs::Choice(knobs::Knob::kProf).value_or(0));
  return config;
}

void TimingLine(const char* format, ...) {
  // One buffered write per line so parallel runs do not interleave
  // mid-line (mirrors the structured-log discipline in src/common/log).
  char line[512];
  int n = std::snprintf(line, sizeof(line), "[obs] ");
  va_list args;
  va_start(args, format);
  std::vsnprintf(line + n, sizeof(line) - static_cast<size_t>(n), format, args);
  va_end(args);
  std::fprintf(stderr, "%s\n", line);
}

bool ApplySeedOverride(uint64_t* seed) {
  ObsConfig config = ObsConfig::FromEnv();
  if (!config.has_seed) {
    return false;
  }
  OASIS_LOG(kInfo) << "OASIS_SEED=" << config.seed << " overrides seed " << *seed;
  *seed = config.seed;
  return true;
}

}  // namespace obs
}  // namespace oasis
