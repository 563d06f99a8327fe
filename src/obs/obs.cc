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

ObsScope::ObsScope(const ObsConfig& config) : config_(config) {
  if (config_.log_level) {
    SetLogLevel(*config_.log_level);
  }
  if (config_.TracingRequested()) {
    Tracer& tracer = Tracer::Global();
    tracer.SetCapacity(config_.trace_capacity);
    tracer.set_enabled(true);
  }
  if (config_.MetricsRequested()) {
    MetricsRegistry::SetEnabled(true);
  }
}

void ObsScope::Flush() {
  if (flushed_) {
    return;
  }
  flushed_ = true;
  if (config_.TracingRequested()) {
    Tracer& tracer = Tracer::Global();
    tracer.set_enabled(false);
    Status written = config_.TraceIsJsonl()
                         ? tracer.ExportJsonlFile(config_.trace_path)
                         : tracer.ExportChromeJsonFile(config_.trace_path);
    if (written.ok()) {
      std::fprintf(stderr, "[obs] %llu trace events (%llu dropped) -> %s\n",
                   static_cast<unsigned long long>(tracer.size()),
                   static_cast<unsigned long long>(tracer.dropped()),
                   config_.trace_path.c_str());
    } else {
      OASIS_LOG(kError) << "trace export failed: " << written.ToString();
    }
  }
  if (config_.MetricsRequested()) {
    MetricsRegistry::SetEnabled(false);
    Status written = MetricsRegistry::Global().WriteCsvFile(config_.metrics_path);
    if (written.ok()) {
      std::fprintf(stderr, "[obs] metrics -> %s\n", config_.metrics_path.c_str());
    } else {
      OASIS_LOG(kError) << "metrics export failed: " << written.ToString();
    }
  }
}

ObsScope::~ObsScope() { Flush(); }

}  // namespace obs
}  // namespace oasis
