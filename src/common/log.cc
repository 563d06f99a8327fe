#include "src/common/log.h"

#include <atomic>
#include <cstdio>
#include <cstring>

namespace oasis {
namespace {

std::atomic<LogLevel> g_level{LogLevel::kWarning};

// INT64_MIN = "no simulation clock published". Thread-local: each parallel
// experiment worker runs its own simulator, so the published clock must not
// leak across runs (and updating it must not race).
constexpr int64_t kNoSimTime = INT64_MIN;
thread_local int64_t t_sim_time_us = kNoSimTime;

const char* LevelTag(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "D";
    case LogLevel::kInfo:
      return "I";
    case LogLevel::kWarning:
      return "W";
    case LogLevel::kError:
      return "E";
    case LogLevel::kOff:
      return "?";
  }
  return "?";
}

const char* Basename(const char* path) {
  const char* slash = std::strrchr(path, '/');
  return slash ? slash + 1 : path;
}

}  // namespace

void SetLogLevel(LogLevel level) { g_level.store(level, std::memory_order_relaxed); }

LogLevel GetLogLevel() { return g_level.load(std::memory_order_relaxed); }

void SetLogSimTime(SimTime now) { t_sim_time_us = now.micros(); }

void ClearLogSimTime() { t_sim_time_us = kNoSimTime; }

bool GetLogSimTime(SimTime* out) {
  if (t_sim_time_us == kNoSimTime) {
    return false;
  }
  *out = SimTime::Micros(t_sim_time_us);
  return true;
}

void LogMessage(LogLevel level, const char* component, const char* file, int line,
                const std::string& message) {
  if (level < GetLogLevel()) {
    return;
  }
  // Render the whole line first so it reaches stderr in one fwrite; writers
  // on different threads cannot interleave mid-line.
  std::string out;
  out.reserve(message.size() + 64);
  out += '[';
  out += LevelTag(level);
  SimTime sim_now;
  if (GetLogSimTime(&sim_now)) {
    out += ' ';
    out += sim_now.ToClockString();
  }
  if (component != nullptr) {
    out += ' ';
    out += component;
  }
  out += ' ';
  out += Basename(file);
  out += ':';
  out += std::to_string(line);
  out += "] ";
  out += message;
  out += '\n';
  std::fwrite(out.data(), 1, out.size(), stderr);
}

}  // namespace oasis
