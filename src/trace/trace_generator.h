// Synthetic VDI user-activity generator.
//
// Substitutes for the paper's 4-month / 22-user keyboard-mouse trace (2086
// user-days). The generator produces user-days whose aggregate statistics
// match what §5.2 reports about the real trace:
//   * diurnal weekday shape — activity peaks around 14:00 and bottoms out
//     around 06:30;
//   * peak simultaneous activity never much above 46% of users;
//   * weekends are markedly quieter;
//   * long fully-idle stretches overnight, but with enough background
//     stragglers that a 30-VM host only sees all of its users idle
//     simultaneously ~13% of the time (§5.3).
//
// Each user-day is drawn independently: an attendance coin decides whether
// the user shows up at all; attendees get an arrival/departure window with a
// lunch dip, and within the window activity alternates between exponential
// active bursts and idle gaps whose density follows a diurnal envelope.

#ifndef OASIS_SRC_TRACE_TRACE_GENERATOR_H_
#define OASIS_SRC_TRACE_TRACE_GENERATOR_H_

#include <array>
#include <cstdint>

#include "src/common/rng.h"
#include "src/trace/activity_trace.h"

namespace oasis {

struct TraceGeneratorConfig {
  // Probability that the user works at all on a given day.
  double weekday_attendance = 0.76;
  double weekend_attendance = 0.30;

  // Presence window (hours). Arrival/departure are Gaussian.
  double arrival_mean_hour = 9.3;
  double arrival_stddev_hours = 1.2;
  double departure_mean_hour = 17.5;
  double departure_stddev_hours = 1.5;

  // Lunch dip.
  double lunch_start_mean_hour = 12.3;
  double lunch_duration_mean_hours = 0.8;
  double lunch_active_probability = 0.05;

  // In-presence burst/gap process (minutes). The idle-gap mean is divided by
  // the diurnal envelope, so gaps shrink near the 14:00 peak.
  double burst_mean_minutes = 26.0;
  double gap_mean_minutes = 28.0;

  // Off-hours activity is session-based, not per-interval noise: real users
  // who touch their desktop at night do so in contiguous remote sessions,
  // which is what leaves home hosts long fully-idle stretches overnight.
  // Expected number of off-hours remote sessions per user-day and their
  // mean length.
  double night_sessions_per_user_day = 0.55;
  double night_session_mean_minutes = 18.0;

  // Probability an attendee works an extra evening session.
  double evening_session_probability = 0.20;

  // Probability that a non-attending user still does one brief remote check.
  double absent_remote_check_probability = 0.20;

  // Weekend sessions: start uniform in [9, 16], exponential duration.
  double weekend_session_mean_hours = 3.5;
};

class TraceGenerator {
 public:
  TraceGenerator(const TraceGeneratorConfig& config, uint64_t seed);

  // One independent user-day.
  UserDay GenerateUserDay(DayKind kind);

  // `n_users` independent user-days, emulating the paper's procedure of
  // sampling user-days from the trace pool and aligning them to one day.
  TraceSet GenerateTraceSet(int n_users, DayKind kind);

  const TraceGeneratorConfig& config() const { return config_; }

 private:
  UserDay GenerateWeekday();
  UserDay GenerateWeekend();
  // Contiguous off-hours remote sessions (Poisson count, uniform start in
  // [from, to), exponential length).
  void ApplyNightSessions(UserDay& day, int from, int to);
  // Bursts and gaps over [from, to); `envelope` scales the gap density at
  // each interval.
  void ApplyBurstGapProcess(UserDay& day, int from, int to,
                            const std::array<double, kIntervalsPerDay>& envelope);

  TraceGeneratorConfig config_;
  Rng rng_;
};

}  // namespace oasis

#endif  // OASIS_SRC_TRACE_TRACE_GENERATOR_H_
