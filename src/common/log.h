// Tiny leveled logger. Benchmarks and the cluster manager log at kInfo;
// per-event detail goes to kDebug and is compiled in but filtered at runtime.
//
// Lines are rendered in one buffer and emitted with a single fwrite, so
// concurrent writers (tests, future threaded drivers) cannot interleave
// mid-line. When a simulation publishes its clock via SetLogSimTime, every
// line carries the current simulated time, and OASIS_CLOG additionally tags
// the emitting component:
//
//   [I 13:25:00 cluster manager.cc:412] vacating host 7 (3 partials)

#ifndef OASIS_SRC_COMMON_LOG_H_
#define OASIS_SRC_COMMON_LOG_H_

#include <sstream>
#include <string>

#include "src/common/units.h"

namespace oasis {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3, kOff = 4 };

// Global minimum level; messages below it are dropped. Defaults to kWarning
// so library users see problems but not chatter.
void SetLogLevel(LogLevel level);
LogLevel GetLogLevel();

// Simulated-clock annotation. The simulator publishes its clock before each
// event dispatch; while set, log lines carry the time as hh:mm:ss.
void SetLogSimTime(SimTime now);
void ClearLogSimTime();
bool GetLogSimTime(SimTime* out);

// Emits one formatted line to stderr. Prefer the OASIS_LOG / OASIS_CLOG
// macros. `component` may be nullptr.
void LogMessage(LogLevel level, const char* component, const char* file, int line,
                const std::string& message);

namespace log_internal {

class LogLine {
 public:
  LogLine(LogLevel level, const char* component, const char* file, int line)
      : level_(level), component_(component), file_(file), line_(line) {}
  ~LogLine() { LogMessage(level_, component_, file_, line_, stream_.str()); }

  template <typename T>
  LogLine& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  const char* component_;
  const char* file_;
  int line_;
  std::ostringstream stream_;
};

}  // namespace log_internal

#define OASIS_LOG(level)                                        \
  if (::oasis::LogLevel::level < ::oasis::GetLogLevel()) {      \
  } else                                                        \
    ::oasis::log_internal::LogLine(::oasis::LogLevel::level, nullptr, __FILE__, __LINE__)

// Like OASIS_LOG with a component tag ("cluster", "memsrv", ...); the tag
// must be a string literal or otherwise outlive the statement.
#define OASIS_CLOG(level, component)                            \
  if (::oasis::LogLevel::level < ::oasis::GetLogLevel()) {      \
  } else                                                        \
    ::oasis::log_internal::LogLine(::oasis::LogLevel::level, component, __FILE__, __LINE__)

}  // namespace oasis

#endif  // OASIS_SRC_COMMON_LOG_H_
