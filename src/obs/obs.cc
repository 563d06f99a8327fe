#include "src/obs/obs.h"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>

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
  if (const char* path = std::getenv("OASIS_TRACE")) {
    config.trace_path = path;
  }
  if (const char* path = std::getenv("OASIS_METRICS")) {
    config.metrics_path = path;
  }
  const char* cap = std::getenv("OASIS_TRACE_CAPACITY");
  if (cap != nullptr && *cap != '\0') {
    char* end = nullptr;
    long n = std::strtol(cap, &end, 10);
    if (*end != '\0' || n <= 0) {
      std::fprintf(stderr,
                   "OASIS_TRACE_CAPACITY=%s is not a positive integer (trace ring size in "
                   "events)\n",
                   cap);
      std::exit(2);
    }
    config.trace_capacity = static_cast<size_t>(n);
  }
  if (const char* level = std::getenv("OASIS_LOG_LEVEL")) {
    config.log_level = level;
  }
  const char* seed = std::getenv("OASIS_SEED");
  if (seed != nullptr && *seed != '\0') {
    char* end = nullptr;
    unsigned long long value = std::strtoull(seed, &end, 0);
    if (*end != '\0') {
      std::fprintf(stderr,
                   "OASIS_SEED=%s is not an integer (decimal, 0x hex or 0 octal seed "
                   "override)\n",
                   seed);
      std::exit(2);
    }
    config.has_seed = true;
    config.seed = static_cast<uint64_t>(value);
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
  if (!config_.log_level.empty()) {
    LogLevel level;
    if (ParseLogLevel(config_.log_level, &level)) {
      SetLogLevel(level);
    } else {
      OASIS_LOG(kWarning) << "unknown OASIS_LOG_LEVEL: " << config_.log_level;
    }
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
