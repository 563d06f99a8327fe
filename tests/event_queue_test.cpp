#include "src/sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "tests/test_env.h"

namespace oasis {
namespace {

// An event whose payload is `tag`, so a pop names which event came out.
Event Tagged(int tag) { return Event{0, static_cast<uint64_t>(tag), 0}; }

int TagOf(const EventQueue::Popped& popped) { return static_cast<int>(popped.event.a); }

TEST(EventQueueTest, EmptyQueue) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.NextTime(), SimTime::Max());
}

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.Schedule(SimTime::Seconds(3), Tagged(3));
  q.Schedule(SimTime::Seconds(1), Tagged(1));
  q.Schedule(SimTime::Seconds(2), Tagged(2));
  while (!q.empty()) {
    order.push_back(TagOf(q.Pop()));
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, TiesBreakInScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.Schedule(SimTime::Seconds(1), Tagged(i));
  }
  while (!q.empty()) {
    order.push_back(TagOf(q.Pop()));
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, PopReportsTimeAndPayload) {
  EventQueue q;
  q.Schedule(SimTime::Seconds(7), Event{3, 41, 42});
  auto popped = q.Pop();
  EXPECT_EQ(popped.time, SimTime::Seconds(7));
  EXPECT_EQ(popped.event.kind, 3u);
  EXPECT_EQ(popped.event.a, 41u);
  EXPECT_EQ(popped.event.b, 42u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, ManyEventsStressOrder) {
  EventQueue q;
  for (int i = 999; i >= 0; --i) {
    q.Schedule(SimTime::Micros(i * 13 % 997), Tagged(i));
  }
  SimTime prev = SimTime::Zero();
  while (!q.empty()) {
    auto e = q.Pop();
    EXPECT_GE(e.time, prev);
    prev = e.time;
  }
}

TEST(EventQueueTest, PastScheduleRunsNextAtTheLastPoppedInstant) {
  // Scheduling before the last popped time files the entry at that time:
  // it runs after the events already queued for that instant and before
  // anything later, and Pop reports its own (past) time. This is the queue's
  // own rule, so it holds with or without the simulator's assert.
  EventQueue q;
  std::vector<int> order;
  q.Schedule(SimTime::Seconds(10), Tagged(10));
  q.Schedule(SimTime::Seconds(10), Tagged(11));
  q.Schedule(SimTime::Seconds(20), Tagged(20));
  EventQueue::Popped first = q.Pop();
  ASSERT_EQ(first.time, SimTime::Seconds(10));
  order.push_back(TagOf(first));
  q.Schedule(SimTime::Seconds(4), Tagged(4));
  q.Schedule(SimTime::Seconds(15), Tagged(15));
  EXPECT_EQ(q.NextTime(), SimTime::Seconds(10));
  std::vector<SimTime> times;
  while (!q.empty()) {
    EventQueue::Popped e = q.Pop();
    times.push_back(e.time);
    order.push_back(TagOf(e));
  }
  EXPECT_EQ(order, (std::vector<int>{10, 11, 4, 15, 20}));
  EXPECT_EQ(times, (std::vector<SimTime>{SimTime::Seconds(10), SimTime::Seconds(4),
                                         SimTime::Seconds(15), SimTime::Seconds(20)}));
}

TEST(EventQueueTest, PastScheduleIntoADrainedInstantRunsFirst) {
  // With the last popped instant drained, a past entry is the front: it pops
  // before later events, and NextTime reports its own time.
  EventQueue q;
  q.Schedule(SimTime::Seconds(10), Event{});
  q.Schedule(SimTime::Seconds(30), Event{});
  ASSERT_EQ(q.Pop().time, SimTime::Seconds(10));
  q.Schedule(SimTime::Seconds(1), Event{});
  EXPECT_EQ(q.NextTime(), SimTime::Seconds(1));
  EXPECT_EQ(q.Pop().time, SimTime::Seconds(1));
  EXPECT_EQ(q.Pop().time, SimTime::Seconds(30));
}

TEST(EventQueueTest, EventScheduledInsideAPeekedGapPopsFirst) {
  // NextTime() may look past a gap; an event scheduled inside the gap
  // afterwards (legal: it is after the last pop) must still pop first.
  EventQueue q;
  q.Schedule(SimTime::Seconds(1), Event{});
  q.Schedule(SimTime::Seconds(100), Event{});
  ASSERT_EQ(q.Pop().time, SimTime::Seconds(1));
  EXPECT_EQ(q.NextTime(), SimTime::Seconds(100));
  q.Schedule(SimTime::Seconds(50), Event{});
  EXPECT_EQ(q.NextTime(), SimTime::Seconds(50));
  EXPECT_EQ(q.Pop().time, SimTime::Seconds(50));
  EXPECT_EQ(q.Pop().time, SimTime::Seconds(100));
}

TEST(EventQueueTest, EventScheduledAfterAnEarlyKeyedPopKeepsTimeOrder) {
  // A keyed event filed ahead of every pending one pops first; what is then
  // scheduled between it and the pending ones still pops in time order.
  EventQueue q;
  const uint64_t seq = q.ReserveSeq();
  q.Schedule(SimTime::Seconds(100), Event{});
  q.ScheduleKeyed(SimTime::Seconds(5), seq, Event{});
  EXPECT_EQ(q.NextTime(), SimTime::Seconds(5));
  EventQueue::Popped keyed = q.Pop();
  EXPECT_EQ(keyed.time, SimTime::Seconds(5));
  EXPECT_EQ(keyed.seq, seq);
  q.Schedule(SimTime::Seconds(50), Event{});
  EXPECT_EQ(q.Pop().time, SimTime::Seconds(50));
  EXPECT_EQ(q.Pop().time, SimTime::Seconds(100));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, PastSchedulesAfterAKeyedPopRunInScheduleOrder) {
  // A keyed pop sets the last popped instant like any other pop, so later
  // past entries are all filed at 5 s and run in schedule order. (Simulator
  // never gets here: it asserts and reports sim.schedule_into_past first.)
  EventQueue q;
  const uint64_t seq = q.ReserveSeq();
  q.ScheduleKeyed(SimTime::Seconds(5), seq, Event{});
  ASSERT_EQ(q.Pop().time, SimTime::Seconds(5));
  q.Schedule(SimTime::Seconds(4), Event{});
  q.Schedule(SimTime::Seconds(3), Event{});
  EXPECT_EQ(q.NextTime(), SimTime::Seconds(4));
  EXPECT_EQ(q.Pop().time, SimTime::Seconds(4));
  EXPECT_EQ(q.Pop().time, SimTime::Seconds(3));
  EXPECT_TRUE(q.empty());
}

// Differential check against a reference that scans for the smallest
// (filed time, seq), where a scheduled entry's filed time is max(when, last
// popped filed time) and a keyed entry is filed at its own time, never in
// the past: the queue's documented order, past-scheduling rule included.
// Reserved keys are filed later, in random order, some never. Each event
// carries its tag, so a pop names which one came out.
TEST(EventQueueTest, RandomInterleavingsMatchASortedReference) {
  struct Ref {
    int64_t filed;
    uint64_t seq;
    SimTime when;
    int tag;
  };
  const int seeds = testing::FuzzTrials(40);
  for (int seed = 0; seed < seeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(0xE7E47 + static_cast<uint64_t>(seed));
    EventQueue q;
    std::vector<Ref> ref;
    std::vector<uint64_t> reserved;
    int64_t last_filed = INT64_MIN;
    // Base for new times: the latest popped time, capped so that offsets
    // from it cannot overflow once a far-future or SimTime::Max() event pops.
    constexpr int64_t kBaseCap = int64_t{1} << 60;
    int64_t last_time = 0;
    uint64_t seq = 0;
    int next_tag = 0;
    auto min_ref = [&]() {
      return std::min_element(ref.begin(), ref.end(), [](const Ref& a, const Ref& b) {
        return a.filed != b.filed ? a.filed < b.filed : a.seq < b.seq;
      });
    };
    auto pop_and_match = [&](int step) {
      auto it = min_ref();
      EventQueue::Popped popped = q.Pop();
      ASSERT_EQ(popped.time, it->when) << "step " << step;
      ASSERT_EQ(popped.seq, it->seq) << "step " << step;
      ASSERT_EQ(TagOf(popped), it->tag) << "step " << step;
      last_filed = it->filed;
      last_time = std::min(std::max(last_time, it->when.micros()), kBaseCap);
      ref.erase(it);
    };
    for (int step = 0; step < 3000; ++step) {
      const uint64_t op = rng.NextBelow(100);
      if (op < 40 || ref.empty()) {
        int64_t when;
        const uint64_t kind = rng.NextBelow(20);
        if (kind < 6) {
          when = last_time;  // tie with the last pop (below the cap)
        } else if (kind < 9 && !ref.empty()) {
          when = ref[rng.NextBelow(ref.size())].when.micros();  // tie with a pending one
        } else if (kind < 15) {
          when = last_time + static_cast<int64_t>(rng.NextBelow(10'000'000));
        } else if (kind < 17) {
          when = last_time + static_cast<int64_t>(rng.NextBelow(uint64_t{1} << 50));
        } else if (kind < 18) {
          when = SimTime::Max().micros();
        } else if (kind < 19) {
          when = last_time - 1 - static_cast<int64_t>(rng.NextBelow(5'000'000));  // past
        } else {
          when = -static_cast<int64_t>(rng.NextBelow(1'000'000));  // negative micros
        }
        const int tag = next_tag++;
        q.Schedule(SimTime(when), Tagged(tag));
        ref.push_back(Ref{std::max(when, last_filed), seq++, SimTime(when), tag});
      } else if (op < 52) {
        ASSERT_EQ(q.ReserveSeq(), seq) << "step " << step;
        reserved.push_back(seq++);
      } else if (op < 64 && !reserved.empty()) {
        const size_t i = rng.NextBelow(reserved.size());
        const uint64_t key_seq = reserved[i];
        reserved.erase(reserved.begin() + static_cast<ptrdiff_t>(i));
        // Many ties: a few distinct offsets from the last pop, or a pending
        // entry's time.
        int64_t when = last_time + static_cast<int64_t>(rng.NextBelow(4)) * 1000;
        if (rng.NextBelow(4) == 0) {
          when = ref[rng.NextBelow(ref.size())].when.micros();
        }
        when = std::max(when, last_filed);  // never in the past
        const int tag = next_tag++;
        q.ScheduleKeyed(SimTime(when), key_seq, Tagged(tag));
        ref.push_back(Ref{when, key_seq, SimTime(when), tag});
      } else {
        pop_and_match(step);
        if (HasFatalFailure()) {
          return;
        }
      }
      ASSERT_EQ(q.size(), ref.size()) << "step " << step;
      ASSERT_EQ(q.empty(), ref.empty()) << "step " << step;
      ASSERT_EQ(q.NextTime(), ref.empty() ? SimTime::Max() : min_ref()->when) << "step " << step;
    }
    for (int step = 3000; !ref.empty(); ++step) {
      pop_and_match(step);
      if (HasFatalFailure()) {
        return;
      }
      ASSERT_EQ(q.size(), ref.size()) << "step " << step;
      ASSERT_EQ(q.NextTime(), ref.empty() ? SimTime::Max() : min_ref()->when) << "step " << step;
    }
    EXPECT_TRUE(q.empty());
  }
}

}  // namespace
}  // namespace oasis
