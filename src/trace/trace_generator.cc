#include "src/trace/trace_generator.h"

#include <algorithm>
#include <array>
#include <cmath>

namespace oasis {
namespace {

constexpr double kIntervalMinutes = kTraceIntervalSeconds / 60.0;

double ClampHour(double h, double lo, double hi) { return std::clamp(h, lo, hi); }

// The diurnal envelope 1 + strength * exp(-(hour - peak)^2 / (2 * 3^2)) at
// each interval's midpoint hour, tabulated once per envelope from the
// expression the burst/gap process evaluates at a burst's last interval.
using Envelope = std::array<double, kIntervalsPerDay>;

Envelope MakeEnvelope(double peak_hour, double strength) {
  Envelope envelope;
  for (int i = 0; i < kIntervalsPerDay; ++i) {
    double hour = HourOfInterval(i);
    envelope[static_cast<size_t>(i)] =
        1.0 + strength * std::exp(-std::pow(hour - peak_hour, 2.0) / (2.0 * 3.0 * 3.0));
  }
  return envelope;
}

const Envelope& WorkdayEnvelope() {  // peaks at 14:00
  static const Envelope envelope = MakeEnvelope(14.0, 1.0);
  return envelope;
}
const Envelope& EveningEnvelope() {  // flat
  static const Envelope envelope = MakeEnvelope(20.5, 0.0);
  return envelope;
}
const Envelope& WeekendEnvelope() {  // a mild 13:00 peak
  static const Envelope envelope = MakeEnvelope(13.0, 0.2);
  return envelope;
}

// How many intervals a run of `minutes` (at least one interval's worth)
// lasts: the number of `minutes -= kIntervalMinutes` steps until it is no
// longer positive. Below 2^53 minutes every positive intermediate is exact
// (it and the step are multiples of its ulp), so the count is the smallest
// k with minutes <= 5k: the quotient's ceiling. The rounded quotient has the
// same ceiling, because a double above 5k exceeds it by at least
// ulp(4k) = 4 ulp(k), so its quotient lands at least 0.8 ulp(k) above k.
// Runs past the end of the day all count as a day and one interval.
int RunIntervals(double minutes) {
  constexpr int kPastTheDay = kIntervalsPerDay + 1;
  if (!(minutes < kIntervalMinutes * kPastTheDay)) {
    return kPastTheDay;
  }
  return static_cast<int>(std::ceil(minutes / kIntervalMinutes));
}

}  // namespace

TraceGenerator::TraceGenerator(const TraceGeneratorConfig& config, uint64_t seed)
    : config_(config), rng_(seed) {}

UserDay TraceGenerator::GenerateUserDay(DayKind kind) {
  return kind == DayKind::kWeekday ? GenerateWeekday() : GenerateWeekend();
}

TraceSet TraceGenerator::GenerateTraceSet(int n_users, DayKind kind) {
  TraceSet set;
  set.reserve(static_cast<size_t>(n_users));
  for (int i = 0; i < n_users; ++i) {
    set.push_back(GenerateUserDay(kind));
  }
  return set;
}

void TraceGenerator::ApplyNightSessions(UserDay& day, int from, int to) {
  if (to <= from) {
    return;
  }
  // Poisson session count: the expected count scales with how much of the
  // day the window covers (off-hours windows cover ~2/3 of a weekday, so the
  // 1.5 factor makes the per-day expectation come out at the configured rate).
  double window_fraction = static_cast<double>(to - from) / kIntervalsPerDay;
  double expected = config_.night_sessions_per_user_day * window_fraction * 1.5;
  int sessions = 0;
  double acc = rng_.NextExponential(1.0);
  while (acc < expected) {
    ++sessions;
    acc += rng_.NextExponential(1.0);
  }
  for (int s = 0; s < sessions; ++s) {
    int start = from + static_cast<int>(rng_.NextBelow(static_cast<uint64_t>(to - from)));
    double len_minutes =
        std::max(kIntervalMinutes, rng_.NextExponential(config_.night_session_mean_minutes));
    int len = static_cast<int>(std::ceil(len_minutes / kIntervalMinutes));
    day.SetActiveRange(start, std::min(start + len, kIntervalsPerDay));
  }
}

void TraceGenerator::ApplyBurstGapProcess(UserDay& day, int from, int to,
                                          const std::array<double, kIntervalsPerDay>& envelope) {
  // Alternating renewal process: exponential active bursts, exponential idle
  // gaps whose mean shrinks near the envelope peak (more bursts mid-afternoon).
  // Each run spans whole intervals, and the next run is drawn at the last
  // one, so a run that outlasts [from, to) draws nothing after it.
  bool active = true;  // sessions begin with input (the user just sat down)
  double remaining_minutes = std::max(kIntervalMinutes,
                                      rng_.NextExponential(config_.burst_mean_minutes));
  const int end = std::min(kIntervalsPerDay, to);
  for (int i = std::max(0, from); i < end;) {
    const int last = i + RunIntervals(remaining_minutes) - 1;
    if (active) {
      day.SetActiveRange(i, std::min(last + 1, end));
    }
    if (last >= end) {
      break;
    }
    if (active) {
      double gap_mean = config_.gap_mean_minutes / envelope[static_cast<size_t>(last)];
      active = false;
      remaining_minutes = std::max(kIntervalMinutes, rng_.NextExponential(gap_mean));
    } else {
      active = true;
      remaining_minutes =
          std::max(kIntervalMinutes, rng_.NextExponential(config_.burst_mean_minutes));
    }
    i = last + 1;
  }
}

UserDay TraceGenerator::GenerateWeekday() {
  UserDay day;
  if (!rng_.NextBool(config_.weekday_attendance)) {
    // Absent: maybe one brief remote check.
    if (rng_.NextBool(config_.absent_remote_check_probability)) {
      int start = static_cast<int>(rng_.NextBelow(kIntervalsPerDay - 3));
      int len = 1 + static_cast<int>(rng_.NextBelow(3));
      day.SetActiveRange(start, start + len);
    }
    ApplyNightSessions(day, 0, kIntervalsPerDay);
    return day;
  }

  double arrival = ClampHour(
      rng_.NextGaussian(config_.arrival_mean_hour, config_.arrival_stddev_hours), 6.0, 12.0);
  double departure = ClampHour(
      rng_.NextGaussian(config_.departure_mean_hour, config_.departure_stddev_hours),
      arrival + 2.0, 23.0);
  int arr_i = IntervalAt(arrival);
  int dep_i = IntervalAt(departure);

  ApplyBurstGapProcess(day, arr_i, dep_i, WorkdayEnvelope());

  // Lunch dip: thin activity down to the lunch probability.
  double lunch_start = rng_.NextGaussian(config_.lunch_start_mean_hour, 0.6);
  double lunch_len = std::max(0.0, rng_.NextGaussian(config_.lunch_duration_mean_hours, 0.3));
  int ls_i = IntervalAt(lunch_start);
  int le_i = IntervalAt(lunch_start + lunch_len);
  for (int i = std::max(arr_i, ls_i); i <= std::min(dep_i, le_i) && i < kIntervalsPerDay;
       ++i) {
    if (day.IsActive(i) && !rng_.NextBool(config_.lunch_active_probability)) {
      day.SetActive(i, false);
    }
  }

  // Optional evening session (e.g. 20:00-22:00, sparser than daytime).
  if (rng_.NextBool(config_.evening_session_probability)) {
    double ev_start = rng_.NextRange(19.5, 21.5);
    double ev_len = rng_.NextRange(0.5, 1.5);
    ApplyBurstGapProcess(day, IntervalAt(ev_start), IntervalAt(ev_start + ev_len),
                         EveningEnvelope());
  }

  // Rare contiguous night sessions before arrival / after departure.
  ApplyNightSessions(day, 0, arr_i);
  ApplyNightSessions(day, dep_i, kIntervalsPerDay);
  return day;
}

UserDay TraceGenerator::GenerateWeekend() {
  UserDay day;
  if (rng_.NextBool(config_.weekend_attendance)) {
    double start = rng_.NextRange(9.0, 16.0);
    double len = std::max(0.5, rng_.NextExponential(config_.weekend_session_mean_hours));
    ApplyBurstGapProcess(day, IntervalAt(start), IntervalAt(start + len), WeekendEnvelope());
  }
  ApplyNightSessions(day, 0, kIntervalsPerDay);
  return day;
}

}  // namespace oasis
