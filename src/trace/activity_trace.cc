#include "src/trace/activity_trace.h"

#include <algorithm>
#include <bit>

namespace oasis {

const char* DayKindName(DayKind kind) {
  return kind == DayKind::kWeekday ? "weekday" : "weekend";
}

int UserDay::ActiveIntervals() const {
  int count = 0;
  for (uint64_t word : words_) {
    count += std::popcount(word);
  }
  return count;
}

double UserDay::ActiveFraction() const {
  return static_cast<double>(ActiveIntervals()) / kIntervalsPerDay;
}

int UserDay::LongestIdleRun() const {
  int best = 0;
  int run = 0;
  for (int i = 0; i < kIntervalsPerDay; ++i) {
    if (IsActive(i)) {
      run = 0;
    } else {
      ++run;
      best = std::max(best, run);
    }
  }
  return best;
}

int IntervalAt(double hour_of_day) {
  int idx = static_cast<int>(hour_of_day * 3600.0 / kTraceIntervalSeconds);
  return std::clamp(idx, 0, kIntervalsPerDay - 1);
}

double HourOfInterval(int interval) {
  return (static_cast<double>(interval) + 0.5) * kTraceIntervalSeconds / 3600.0;
}

}  // namespace oasis
