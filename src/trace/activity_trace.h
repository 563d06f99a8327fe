// User activity traces.
//
// The paper drives its cluster simulation with keyboard/mouse activity traces
// of 22 desktop users sampled every 5 seconds and quantized to 5-minute
// intervals: an interval is "active" if it saw any input (§5.1). That trace
// is not public, so Oasis ships a calibrated synthetic generator
// (trace_generator.h) and this module defines the trace representation both
// share: one bit per 5-minute interval per user-day, packed into five 64-bit
// words held inline, so a user-day (and a TraceSet copy) allocates nothing
// per user and a set of them transposes into per-interval VM bitsets a
// 64 x 64 block at a time (ActivityRows).

#ifndef OASIS_SRC_TRACE_ACTIVITY_TRACE_H_
#define OASIS_SRC_TRACE_ACTIVITY_TRACE_H_

#include <array>
#include <cstdint>
#include <vector>

#include "src/common/units.h"

namespace oasis {

inline constexpr int kTraceIntervalSeconds = 300;  // 5 minutes
inline constexpr int kIntervalsPerDay = 24 * 3600 / kTraceIntervalSeconds;  // 288

inline constexpr SimTime TraceIntervalLength() {
  return SimTime::Seconds(kTraceIntervalSeconds);
}

enum class DayKind { kWeekday, kWeekend };

const char* DayKindName(DayKind kind);

// One user's activity over one day: IsActive(i) is true iff the user produced
// keyboard/mouse input during 5-minute interval i.
class UserDay {
 public:
  static constexpr int kWords = (kIntervalsPerDay + 63) / 64;  // 5
  using Words = std::array<uint64_t, kWords>;

  bool IsActive(int interval) const {
    return ((words_[Word(interval)] >> Bit(interval)) & 1u) != 0;
  }
  void SetActive(int interval, bool active) {
    uint64_t mask = uint64_t{1} << Bit(interval);
    words_[Word(interval)] = active ? words_[Word(interval)] | mask
                                    : words_[Word(interval)] & ~mask;
  }

  // Marks intervals [begin, end) active, a word at a time.
  void SetActiveRange(int begin, int end);

  int ActiveIntervals() const;
  double ActiveFraction() const;

  // Longest run of consecutive idle intervals.
  int LongestIdleRun() const;

  // Interval i is bit i % 64 of word i / 64; bits at or past kIntervalsPerDay
  // are always clear.
  const Words& words() const { return words_; }

  bool operator==(const UserDay&) const = default;

 private:
  static size_t Word(int interval) { return static_cast<size_t>(interval) / 64; }
  static unsigned Bit(int interval) { return static_cast<unsigned>(interval) % 64; }

  Words words_{};
};

// A set of user-days that drives one simulated day: element u is the
// activity of VM u's user.
using TraceSet = std::vector<UserDay>;

// The set's activity as one bitset over `vms` VMs per interval, VM v
// following set[v % set.size()] (`set` must not be empty): bit v % 64 of
// word i * RowWords(vms) + v / 64 is set iff VM v is active in interval i.
// Each 64-VM x 64-interval block of user-day words is transposed in one
// piece.
size_t RowWords(size_t vms);
std::vector<uint64_t> ActivityRows(const TraceSet& set, size_t vms);

// Interval index for a time-of-day (e.g. 14:00 -> 168).
int IntervalAt(double hour_of_day);

// Midpoint hour of an interval index.
double HourOfInterval(int interval);

}  // namespace oasis

#endif  // OASIS_SRC_TRACE_ACTIVITY_TRACE_H_
