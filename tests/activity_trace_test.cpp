#include "src/trace/activity_trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <vector>

#include "src/common/rng.h"

namespace oasis {
namespace {

TEST(ActivityTraceTest, Constants) {
  EXPECT_EQ(kTraceIntervalSeconds, 300);
  EXPECT_EQ(kIntervalsPerDay, 288);
  EXPECT_EQ(TraceIntervalLength(), SimTime::Minutes(5));
}

TEST(UserDayTest, StartsIdle) {
  UserDay day;
  EXPECT_EQ(day.ActiveIntervals(), 0);
  EXPECT_DOUBLE_EQ(day.ActiveFraction(), 0.0);
  EXPECT_EQ(day.LongestIdleRun(), kIntervalsPerDay);
}

TEST(UserDayTest, SetAndGet) {
  UserDay day;
  day.SetActive(10, true);
  day.SetActive(20, true);
  EXPECT_TRUE(day.IsActive(10));
  EXPECT_FALSE(day.IsActive(11));
  EXPECT_EQ(day.ActiveIntervals(), 2);
  day.SetActive(10, false);
  EXPECT_EQ(day.ActiveIntervals(), 1);
}

TEST(UserDayTest, LongestIdleRun) {
  UserDay day;
  day.SetActive(100, true);
  // Idle runs: [0,99] (100 long) and [101,287] (187 long).
  EXPECT_EQ(day.LongestIdleRun(), 187);
  day.SetActive(0, true);
  day.SetActive(287, true);
  EXPECT_EQ(day.LongestIdleRun(), 186);
}

// Interval indices on both sides of every 64-bit word boundary, plus the
// first and last interval of the day.
constexpr int kEdgeIntervals[] = {0, 63, 64, 127, 128, 255, 256, 287};

TEST(UserDayTest, SetClearAndReadAtWordBoundaries) {
  for (int interval : kEdgeIntervals) {
    UserDay day;
    day.SetActive(interval, true);
    for (int i = 0; i < kIntervalsPerDay; ++i) {
      EXPECT_EQ(day.IsActive(i), i == interval) << "set " << interval << ", read " << i;
    }
    EXPECT_EQ(day.ActiveIntervals(), 1) << interval;
    day.SetActive(interval, true);  // setting twice is idempotent
    EXPECT_EQ(day.ActiveIntervals(), 1) << interval;
    day.SetActive(interval, false);
    EXPECT_FALSE(day.IsActive(interval)) << interval;
    EXPECT_EQ(day, UserDay()) << interval;
  }
}

TEST(UserDayTest, ClearLeavesNeighboursAcrossWordBoundaries) {
  UserDay day;
  for (int i = 0; i < kIntervalsPerDay; ++i) {
    day.SetActive(i, true);
  }
  EXPECT_EQ(day.ActiveIntervals(), kIntervalsPerDay);
  EXPECT_EQ(day.LongestIdleRun(), 0);
  for (int interval : kEdgeIntervals) {
    day.SetActive(interval, false);
  }
  for (int i = 0; i < kIntervalsPerDay; ++i) {
    bool edge = std::find(std::begin(kEdgeIntervals), std::end(kEdgeIntervals), i) !=
                std::end(kEdgeIntervals);
    EXPECT_EQ(day.IsActive(i), !edge) << i;
  }
  EXPECT_EQ(day.ActiveIntervals(), kIntervalsPerDay - 8);
  // 63|64, 127|128 and 255|256 are adjacent idle pairs straddling a word.
  EXPECT_EQ(day.LongestIdleRun(), 2);
}

TEST(UserDayTest, ActiveIntervalsCountsEveryWord) {
  UserDay day;
  int expected = 0;
  for (int i = 0; i < kIntervalsPerDay; i += 7) {
    day.SetActive(i, true);
    ++expected;
  }
  EXPECT_EQ(day.ActiveIntervals(), expected);
  EXPECT_DOUBLE_EQ(day.ActiveFraction(), static_cast<double>(expected) / kIntervalsPerDay);
  // Bits past the last interval stay clear.
  EXPECT_EQ(day.words().back() >> (kIntervalsPerDay % 64), 0u);
}

TEST(UserDayTest, LongestIdleRunSpansWords) {
  UserDay day;
  // Idle runs: [0,9] (10), [11,199] (189, crossing words 0-3), [201,287] (87).
  day.SetActive(10, true);
  day.SetActive(200, true);
  EXPECT_EQ(day.LongestIdleRun(), 189);
  // Split the long run at the 127|128 boundary: [11,127] (117) and [129,199] (71).
  day.SetActive(128, true);
  EXPECT_EQ(day.LongestIdleRun(), 117);
  // A run that ends the day inside the last, partial word: [201,287] (87).
  day.SetActive(63, true);
  EXPECT_EQ(day.LongestIdleRun(), 87);
}

TEST(UserDayTest, EqualityComparesEveryInterval) {
  for (int interval : kEdgeIntervals) {
    UserDay a;
    UserDay b;
    a.SetActive(interval, true);
    EXPECT_NE(a, b) << interval;
    b.SetActive(interval, true);
    EXPECT_EQ(a, b) << interval;
  }
}

TEST(UserDayTest, SetActiveRangeMatchesOneIntervalAtATime) {
  // Ranges that start and end on either side of every word boundary.
  std::vector<int> edges{0, 1, 287, 288};
  for (int boundary : {64, 128, 192, 256}) {
    for (int d : {-2, -1, 0, 1}) {
      edges.push_back(boundary + d);
    }
  }
  for (int begin : edges) {
    for (int end : edges) {
      UserDay ranged;
      UserDay stepped;
      ranged.SetActive(50, true);
      stepped.SetActive(50, true);
      ranged.SetActiveRange(begin, end);
      for (int i = begin; i < end; ++i) {
        stepped.SetActive(i, true);
      }
      EXPECT_EQ(ranged, stepped) << "[" << begin << ", " << end << ")";
    }
  }
}

TEST(ActivityRowsTest, TransposedBlocksMatchAPerBitLift) {
  // Random user-days (a few all-active or idle) lifted over VM counts on
  // and off a 64-VM block boundary, including more VMs than user-days.
  Rng rng(20160418);
  TraceSet set(1000);
  for (size_t u = 0; u < set.size(); ++u) {
    for (int i = 0; i < kIntervalsPerDay; ++i) {
      const bool active = u % 97 == 1 || (u % 97 != 2 && rng.NextBool(0.3));
      set[u].SetActive(i, active);
    }
  }
  const TraceSet few(set.begin(), set.begin() + 37);
  struct Case {
    const TraceSet* trace;
    size_t vms;
  };
  for (const Case& c : {Case{&set, 900}, Case{&set, 901}, Case{&set, 1000}, Case{&few, 900},
                        Case{&few, 64}, Case{&few, 1}}) {
    const size_t words = RowWords(c.vms);
    std::vector<uint64_t> want(static_cast<size_t>(kIntervalsPerDay) * words, 0);
    for (size_t v = 0; v < c.vms; ++v) {
      const UserDay& day = (*c.trace)[v % c.trace->size()];
      for (int i = 0; i < kIntervalsPerDay; ++i) {
        if (day.IsActive(i)) {
          want[static_cast<size_t>(i) * words + v / 64] |= uint64_t{1} << (v % 64);
        }
      }
    }
    EXPECT_EQ(ActivityRows(*c.trace, c.vms), want)
        << c.vms << " VMs over " << c.trace->size() << " user-days";
  }
}

TEST(IntervalMathTest, IntervalAtMapsHours) {
  EXPECT_EQ(IntervalAt(0.0), 0);
  EXPECT_EQ(IntervalAt(14.0), 168);
  EXPECT_EQ(IntervalAt(23.99), 287);
  EXPECT_EQ(IntervalAt(24.5), 287);  // clamps
}

TEST(IntervalMathTest, HourOfIntervalIsMidpoint) {
  EXPECT_NEAR(HourOfInterval(0), 0.0417, 0.001);
  EXPECT_NEAR(HourOfInterval(168), 14.04, 0.01);
}

TEST(IntervalMathTest, RoundTrip) {
  for (int i = 0; i < kIntervalsPerDay; ++i) {
    EXPECT_EQ(IntervalAt(HourOfInterval(i)), i);
  }
}

TEST(DayKindTest, Names) {
  EXPECT_STREQ(DayKindName(DayKind::kWeekday), "weekday");
  EXPECT_STREQ(DayKindName(DayKind::kWeekend), "weekend");
}

}  // namespace
}  // namespace oasis
