// Calibration tests: the synthetic trace must reproduce the workload
// properties §5.2 reports about the paper's real trace, because every
// cluster result depends on them.

#include "src/trace/trace_generator.h"

#include <gtest/gtest.h>

#include "src/common/digest.h"
#include "src/trace/trace_stats.h"

namespace oasis {
namespace {

TraceSet Weekdays(int n, uint64_t seed = 1) {
  TraceGenerator gen(TraceGeneratorConfig{}, seed);
  return gen.GenerateTraceSet(n, DayKind::kWeekday);
}

TraceSet Weekends(int n, uint64_t seed = 1) {
  TraceGenerator gen(TraceGeneratorConfig{}, seed);
  return gen.GenerateTraceSet(n, DayKind::kWeekend);
}

TEST(TraceGeneratorTest, DeterministicForSameSeed) {
  TraceGenerator a(TraceGeneratorConfig{}, 42);
  TraceGenerator b(TraceGeneratorConfig{}, 42);
  UserDay da = a.GenerateUserDay(DayKind::kWeekday);
  UserDay db = b.GenerateUserDay(DayKind::kWeekday);
  EXPECT_EQ(da, db);
}

TEST(TraceGeneratorTest, WeekdayPeakNearPaperFortySixPercent) {
  // §5.2: "there are never more than 411 (46%) active VMs simultaneously".
  TraceSet set = Weekdays(900);
  double peak = PeakActiveFraction(set);
  EXPECT_GT(peak, 0.30);
  EXPECT_LT(peak, 0.50);
}

TEST(TraceGeneratorTest, WeekdayPeaksMidAfternoonTroughsEarlyMorning) {
  // §5.2: peak around 14:00, bottom around 06:30.
  TraceSet set = Weekdays(900);
  double peak_hour = HourOfInterval(PeakInterval(set));
  EXPECT_GT(peak_hour, 11.0);
  EXPECT_LT(peak_hour, 17.0);
  double trough_hour = HourOfInterval(TroughInterval(set));
  EXPECT_TRUE(trough_hour < 8.0 || trough_hour > 22.0)
      << "trough at " << trough_hour;
}

TEST(TraceGeneratorTest, WeekendsAreQuieter) {
  TraceSet wd = Weekdays(900);
  TraceSet we = Weekends(900);
  EXPECT_LT(PeakActiveFraction(we), PeakActiveFraction(wd) * 0.6);
  EXPECT_LT(MeanActiveFraction(we), MeanActiveFraction(wd) * 0.5);
}

TEST(TraceGeneratorTest, MeanDailyActivityPlausibleForOfficeWorkers) {
  TraceSet set = Weekdays(900);
  double mean = MeanActiveFraction(set);
  EXPECT_GT(mean, 0.06);
  EXPECT_LT(mean, 0.22);
}

TEST(TraceGeneratorTest, ThirtyVmHostsSeeLongAllIdleStretches) {
  // §5.3: all 30 VMs of a home host are simultaneously idle ~13% of the
  // time — little enough to doom OnlyPartial, but nonzero.
  TraceSet set = Weekdays(900);
  double frac = MeanAllIdleFraction(set, 30);
  EXPECT_GT(frac, 0.05);
  EXPECT_LT(frac, 0.35);
}

TEST(TraceGeneratorTest, NightIsContiguouslyQuiet) {
  // Off-hours activity comes in contiguous sessions, so an individual user's
  // longest idle run should span most of the night.
  TraceSet set = Weekdays(200);
  int long_runs = 0;
  for (const UserDay& day : set) {
    if (day.LongestIdleRun() >= 8 * 12) {  // >= 8 hours
      ++long_runs;
    }
  }
  EXPECT_GT(long_runs, 150);
}

TEST(TraceGeneratorTest, ActivationsPerUserDayAreModerate) {
  // Users resume activity a handful of times a day, not every interval.
  TraceSet set = Weekdays(500);
  double total_activations = 0;
  for (const UserDay& day : set) {
    for (int i = 1; i < kIntervalsPerDay; ++i) {
      if (day.IsActive(i) && !day.IsActive(i - 1)) {
        ++total_activations;
      }
    }
  }
  double per_user = total_activations / 500.0;
  EXPECT_GT(per_user, 2.0);
  EXPECT_LT(per_user, 15.0);
}

TEST(TraceGeneratorTest, AttendanceControlsActivity) {
  TraceGeneratorConfig nobody;
  nobody.weekday_attendance = 0.0;
  nobody.absent_remote_check_probability = 0.0;
  nobody.night_sessions_per_user_day = 0.0;
  TraceGenerator gen(nobody, 3);
  TraceSet set = gen.GenerateTraceSet(50, DayKind::kWeekday);
  EXPECT_DOUBLE_EQ(MeanActiveFraction(set), 0.0);

  TraceGeneratorConfig everyone;
  everyone.weekday_attendance = 1.0;
  TraceGenerator gen2(everyone, 3);
  TraceSet set2 = gen2.GenerateTraceSet(50, DayKind::kWeekday);
  EXPECT_GT(MeanActiveFraction(set2), 0.10);
}

// One FNV-1a fold over every word of every user-day of a set.
uint64_t TraceDigest(const TraceSet& set) {
  Fnv1a digest;
  for (const UserDay& day : set) {
    for (uint64_t word : day.words()) {
      digest.Fold(word);
    }
  }
  return digest.hash();
}

TEST(TraceGeneratorTest, GeneratedSetsMatchTheirPinnedDigests) {
  // The generator's output is pinned bit for bit: the Fig 12 grid's traces
  // (900 users, both days, the three repetition seeds ClusterSimulation
  // derives from 20160418), one datacenter rack of 36 x 110 users, and two
  // configurations that take every branch (everyone attends and works an
  // evening; nobody attends and everyone checks in remotely).
  struct Case {
    TraceGeneratorConfig config;
    uint64_t seed;
    int users;
    DayKind day;
    uint64_t digest;
  };
  TraceGeneratorConfig everyone;
  everyone.weekday_attendance = 1.0;
  everyone.weekend_attendance = 1.0;
  everyone.evening_session_probability = 1.0;
  TraceGeneratorConfig remote;
  remote.weekday_attendance = 0.0;
  remote.absent_remote_check_probability = 1.0;
  remote.night_sessions_per_user_day = 3.0;
  // ClusterSimulation's trace stream for ExperimentPlan's repetition r of
  // base seed 20160418.
  auto fig12 = [](uint64_t r) { return (20160418 + r * 0x9E3779B9ull) ^ 0x7ACEBA5Eull; };
  const Case cases[] = {
      {{}, fig12(0), 900, DayKind::kWeekday, 0x3c612a6f17ee4945ull},
      {{}, fig12(1), 900, DayKind::kWeekday, 0x30f48904aeb579a4ull},
      {{}, fig12(2), 900, DayKind::kWeekday, 0x5ea922872d7583adull},
      {{}, fig12(0), 900, DayKind::kWeekend, 0x789fef93b1b98c93ull},
      {{}, fig12(1), 900, DayKind::kWeekend, 0xe61f96bfb04cd42aull},
      {{}, fig12(2), 900, DayKind::kWeekend, 0x9e916fc852fd3f9aull},
      {{}, fig12(0), 36 * 110, DayKind::kWeekday, 0xf6cda49e2b76f32full},
      {everyone, 7, 900, DayKind::kWeekday, 0x56a4697b701f26c1ull},
      {everyone, 7, 900, DayKind::kWeekend, 0x23275d38dfbf5224ull},
      {remote, 7, 900, DayKind::kWeekday, 0x36d854a429593901ull},
  };
  for (const Case& c : cases) {
    TraceGenerator gen(c.config, c.seed);
    EXPECT_EQ(TraceDigest(gen.GenerateTraceSet(c.users, c.day)), c.digest)
        << DayKindName(c.day) << " seed " << c.seed << ", " << c.users << " users";
  }
}

class TraceStatsGroupTest : public ::testing::TestWithParam<size_t> {};

TEST_P(TraceStatsGroupTest, AllIdleFractionDecreasesWithGroupSize) {
  // More VMs on a host means fewer fully-idle intervals — the §2 argument
  // for why co-location kills naive partial-migration sleep.
  TraceSet set = Weekdays(600, /*seed=*/9);
  size_t group = GetParam();
  double small_group = MeanAllIdleFraction(set, group);
  double big_group = MeanAllIdleFraction(set, group * 2);
  EXPECT_GE(small_group, big_group);
}

INSTANTIATE_TEST_SUITE_P(GroupSizes, TraceStatsGroupTest,
                         ::testing::Values(1, 2, 5, 10, 15, 30));

TEST(TraceStatsTest, ActiveCountSeriesSumsUsers) {
  TraceSet set;
  UserDay a;
  a.SetActive(0, true);
  UserDay b;
  b.SetActive(0, true);
  b.SetActive(1, true);
  set.push_back(a);
  set.push_back(b);
  std::vector<int> counts = ActiveCountSeries(set);
  EXPECT_EQ(counts[0], 2);
  EXPECT_EQ(counts[1], 1);
  EXPECT_EQ(counts[2], 0);
}

TEST(TraceStatsTest, AllIdleFractionBounds) {
  TraceSet set;
  UserDay all_active;
  for (int i = 0; i < kIntervalsPerDay; ++i) {
    all_active.SetActive(i, true);
  }
  set.push_back(all_active);
  set.push_back(UserDay{});
  EXPECT_DOUBLE_EQ(AllIdleFraction(set, 0, 1), 0.0);
  EXPECT_DOUBLE_EQ(AllIdleFraction(set, 1, 1), 1.0);
  EXPECT_DOUBLE_EQ(AllIdleFraction(set, 0, 2), 0.0);
}

}  // namespace
}  // namespace oasis
