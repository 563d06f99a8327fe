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

// A keyed event runs where an event scheduled at its reservation would
// have: before a queued event at the same microsecond that was scheduled
// after the reservation, after one scheduled before it. Each event sees its
// own key as (now(), current_seq()).
TEST(SimulatorTest, KeyedAndQueuedEventsAtOneInstantRunInSeqOrder) {
  const SimTime at = SimTime::Seconds(7);
  for (bool reserve_first : {true, false}) {
    SCOPED_TRACE(reserve_first ? "reserved first" : "queued first");
    Simulator sim;
    std::vector<char> order;
    std::vector<uint64_t> seqs;
    auto record = [&](char tag) {
      order.push_back(tag);
      seqs.push_back(sim.current_seq());
      EXPECT_EQ(sim.now(), at);
    };
    uint64_t reserved = 0;
    if (reserve_first) {
      reserved = sim.ReserveSeq();
      sim.ScheduleAt(at, [&] { record('q'); });
    } else {
      sim.ScheduleAt(at, [&] { record('q'); });
      reserved = sim.ReserveSeq();
    }
    // The keyed event is filed later, from an earlier event, as the cluster
    // files a completion once a user starts waiting on it.
    sim.ScheduleAt(SimTime::Seconds(1),
                   [&] { sim.ScheduleKeyed(at, reserved, [&] { record('k'); }); });
    EXPECT_EQ(sim.current_seq(), UINT64_MAX);
    sim.RunToCompletion();
    EXPECT_EQ(order, reserve_first ? (std::vector<char>{'k', 'q'})
                                   : (std::vector<char>{'q', 'k'}));
    ASSERT_EQ(seqs.size(), 2u);
    EXPECT_EQ(seqs[reserve_first ? 0 : 1], reserved);
    EXPECT_LT(seqs[0], seqs[1]);
    EXPECT_EQ(sim.current_seq(), UINT64_MAX);
    EXPECT_EQ(sim.events_dispatched(), 3u);
  }
}

}  // namespace
}  // namespace oasis
