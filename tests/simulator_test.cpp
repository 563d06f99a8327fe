#include "src/sim/simulator.h"

#include <gtest/gtest.h>

#include <vector>

namespace oasis {
namespace {

TEST(SimulatorTest, ClockAdvancesWithEvents) {
  Simulator sim;
  EXPECT_EQ(sim.now(), SimTime::Zero());
  std::vector<double> times;
  sim.ScheduleAfter(SimTime::Seconds(5), Event{});
  sim.ScheduleAfter(SimTime::Seconds(2), Event{});
  sim.RunUntil(SimTime::Seconds(10), [&](const Event&) { times.push_back(sim.now().seconds()); });
  EXPECT_EQ(times, (std::vector<double>{2.0, 5.0}));
  EXPECT_EQ(sim.now(), SimTime::Seconds(10));
  EXPECT_EQ(sim.events_dispatched(), 2u);
}

TEST(SimulatorTest, DispatcherSeesEachPayload) {
  Simulator sim;
  sim.ScheduleAt(SimTime::Seconds(1), Event{1, 10, 100});
  sim.ScheduleAt(SimTime::Seconds(1), Event{2, 20, 200});
  std::vector<uint64_t> seen;
  sim.RunUntil(SimTime::Seconds(1), [&](const Event& ev) {
    seen.insert(seen.end(), {ev.kind, ev.a, ev.b});
  });
  EXPECT_EQ(seen, (std::vector<uint64_t>{1, 10, 100, 2, 20, 200}));
}

TEST(SimulatorTest, EventsScheduleMoreEvents) {
  Simulator sim;
  int depth = 0;
  SimTime last;
  auto recurse = [&](const Event&) {
    last = sim.now();
    if (++depth < 5) {
      sim.ScheduleAfter(SimTime::Seconds(1), Event{});
    }
  };
  sim.ScheduleAfter(SimTime::Seconds(1), Event{});
  sim.RunUntil(SimTime::Seconds(60), recurse);
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(last, SimTime::Seconds(5));
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim;
  std::vector<uint64_t> ran;
  auto record = [&](const Event& ev) { ran.push_back(ev.a); };
  sim.ScheduleAfter(SimTime::Seconds(1), Event{0, 1, 0});
  sim.ScheduleAfter(SimTime::Seconds(10), Event{0, 10, 0});
  sim.RunUntil(SimTime::Seconds(5), record);
  EXPECT_EQ(ran, (std::vector<uint64_t>{1}));
  EXPECT_EQ(sim.now(), SimTime::Seconds(5));
  EXPECT_EQ(sim.pending_events(), 1u);
  // The next step picks up where this one stopped.
  sim.RunUntil(SimTime::Seconds(10), record);
  EXPECT_EQ(ran, (std::vector<uint64_t>{1, 10}));
}

TEST(SimulatorTest, RunUntilIncludesDeadlineEvents) {
  Simulator sim;
  bool ran = false;
  sim.ScheduleAfter(SimTime::Seconds(5), Event{});
  sim.RunUntil(SimTime::Seconds(5), [&](const Event&) { ran = true; });
  EXPECT_TRUE(ran);
}

TEST(SimulatorTest, RunUntilAdvancesClockWithNoEvents) {
  Simulator sim;
  sim.RunUntil(SimTime::Hours(24), [](const Event&) { ADD_FAILURE() << "no event queued"; });
  EXPECT_EQ(sim.now(), SimTime::Hours(24));
}

TEST(SimulatorTest, ScheduleAtAbsoluteTime) {
  Simulator sim;
  double seen = -1.0;
  sim.ScheduleAt(SimTime::Seconds(42), Event{});
  sim.RunUntil(SimTime::Seconds(50), [&](const Event&) { seen = sim.now().seconds(); });
  EXPECT_DOUBLE_EQ(seen, 42.0);
}

// A keyed event runs where an event scheduled at its reservation would
// have: before a queued event at the same microsecond that was scheduled
// after the reservation, after one scheduled before it. Each event sees its
// own key as (now(), current_seq()).
TEST(SimulatorTest, KeyedAndQueuedEventsAtOneInstantRunInSeqOrder) {
  constexpr uint32_t kQueued = 0;
  constexpr uint32_t kFiler = 1;
  constexpr uint32_t kKeyed = 2;
  const SimTime at = SimTime::Seconds(7);
  for (bool reserve_first : {true, false}) {
    SCOPED_TRACE(reserve_first ? "reserved first" : "queued first");
    Simulator sim;
    std::vector<char> order;
    std::vector<uint64_t> seqs;
    uint64_t reserved = 0;
    if (reserve_first) {
      reserved = sim.ReserveSeq();
      sim.ScheduleAt(at, Event{kQueued});
    } else {
      sim.ScheduleAt(at, Event{kQueued});
      reserved = sim.ReserveSeq();
    }
    // The keyed event is filed later, from an earlier event, as the cluster
    // files a completion once a user starts waiting on it.
    sim.ScheduleAt(SimTime::Seconds(1), Event{kFiler});
    EXPECT_EQ(sim.current_seq(), UINT64_MAX);
    sim.RunUntil(at, [&](const Event& ev) {
      if (ev.kind == kFiler) {
        sim.ScheduleKeyed(at, reserved, Event{kKeyed});
        return;
      }
      order.push_back(ev.kind == kKeyed ? 'k' : 'q');
      seqs.push_back(sim.current_seq());
      EXPECT_EQ(sim.now(), at);
    });
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
