#include "src/sim/simulator.h"

#include <gtest/gtest.h>

#include <functional>
#include <vector>

namespace oasis {
namespace {

TEST(SimulatorTest, ClockAdvancesWithEvents) {
  Simulator sim;
  EXPECT_EQ(sim.now(), SimTime::Zero());
  std::vector<double> times;
  sim.ScheduleAfter(SimTime::Seconds(5), [&] { times.push_back(sim.now().seconds()); });
  sim.ScheduleAfter(SimTime::Seconds(2), [&] { times.push_back(sim.now().seconds()); });
  sim.RunToCompletion();
  EXPECT_EQ(times, (std::vector<double>{2.0, 5.0}));
  EXPECT_EQ(sim.now(), SimTime::Seconds(5));
}

TEST(SimulatorTest, EventsScheduleMoreEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) {
      sim.ScheduleAfter(SimTime::Seconds(1), recurse);
    }
  };
  sim.ScheduleAfter(SimTime::Seconds(1), recurse);
  sim.RunToCompletion();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.now(), SimTime::Seconds(5));
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim;
  bool late_ran = false;
  bool on_time_ran = false;
  sim.ScheduleAfter(SimTime::Seconds(1), [&] { on_time_ran = true; });
  sim.ScheduleAfter(SimTime::Seconds(10), [&] { late_ran = true; });
  sim.RunUntil(SimTime::Seconds(5));
  EXPECT_TRUE(on_time_ran);
  EXPECT_FALSE(late_ran);
  EXPECT_EQ(sim.now(), SimTime::Seconds(5));
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(SimulatorTest, RunUntilIncludesDeadlineEvents) {
  Simulator sim;
  bool ran = false;
  sim.ScheduleAfter(SimTime::Seconds(5), [&] { ran = true; });
  sim.RunUntil(SimTime::Seconds(5));
  EXPECT_TRUE(ran);
}

TEST(SimulatorTest, RunUntilAdvancesClockWithNoEvents) {
  Simulator sim;
  sim.RunUntil(SimTime::Hours(24));
  EXPECT_EQ(sim.now(), SimTime::Hours(24));
}

TEST(SimulatorTest, ScheduleAtAbsoluteTime) {
  Simulator sim;
  double seen = -1.0;
  sim.ScheduleAt(SimTime::Seconds(42), [&] { seen = sim.now().seconds(); });
  sim.RunToCompletion();
  EXPECT_DOUBLE_EQ(seen, 42.0);
}

}  // namespace
}  // namespace oasis
