// Discrete-event queue.
//
// An event is plain data: an integer kind and two integer words, which the
// caller's dispatcher interprets. The pending entries form one binary heap of
// trivially copyable records keyed (filed time, seq), the event stored
// inline, so Schedule and Pop perform no per-event heap allocation.
//
// Every event carries a sequence number from one counter, taken when the
// event is scheduled, and pops come out in exactly (time, seq) order. A
// caller may also reserve a number without scheduling anything (ReserveSeq)
// and file an event at that key later (ScheduleKeyed): it then runs exactly
// where an event scheduled at reservation time would have. The cluster keeps
// its migration completions as such reserved keys rather than events, and
// files one only when something must happen at that instant.
//
// Scheduling into the past (before the last popped event's time) has one
// defined meaning: the entry is filed at the last popped instant, so it runs
// after the events already queued there and in schedule order among other
// past entries. Pop still reports the entry's own (past) time, so the
// simulator's monotonicity checks see it.
//
// Events cannot be cancelled. A component whose scheduled completion may go
// stale (an aborted migration, a crashed host's S3 transition) bumps an
// epoch it owns and carries it in the event, and the dispatch ignores an
// event whose epoch has moved.

#ifndef OASIS_SRC_SIM_EVENT_QUEUE_H_
#define OASIS_SRC_SIM_EVENT_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "src/common/units.h"

namespace oasis {

// What happens at an event: `kind` names it, `a` and `b` are its arguments
// (an id, an index, an epoch). The kinds belong to the caller.
struct Event {
  uint32_t kind = 0;
  uint64_t a = 0;
  uint64_t b = 0;
};

class EventQueue {
 public:
  // Schedules `ev` at absolute time `when`. Ties break in schedule order.
  // A `when` before the last popped event's time is filed at that time
  // (see the header comment); Pop still reports `when`.
  void Schedule(SimTime when, Event ev);

  // Takes the next sequence number without scheduling anything.
  uint64_t ReserveSeq() { return next_seq_++; }
  // Schedules `ev` at the key (`when`, `seq`), where `seq` came from
  // ReserveSeq and `when` is not before the last popped event's time.
  void ScheduleKeyed(SimTime when, uint64_t seq, Event ev);

  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }

  // Time of the earliest pending event; SimTime::Max() when empty.
  SimTime NextTime() const { return empty() ? SimTime::Max() : heap_.front().time; }

  // Pops and returns the earliest pending event. Must not be empty.
  struct Popped {
    SimTime time;
    uint64_t seq;
    Event event;
  };
  Popped Pop();

 private:
  struct Entry {
    SimTime filed;  // the event's time, or the last popped one if that is later
    uint64_t seq;
    SimTime time;  // the event's own time, which Pop reports
    Event event;
  };
  static_assert(std::is_trivially_copyable_v<Entry>, "sift steps must copy plain words");
  // The heap's comparator: the std heap algorithms keep the "greatest" entry
  // in front, so ordering by "pops later" puts the smallest (filed, seq) there.
  // A function object, not a function pointer, so the sift loops inline it.
  struct PopsLater {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.filed != b.filed ? a.filed > b.filed : a.seq > b.seq;
    }
  };

  void Push(const Entry& entry);

  std::vector<Entry> heap_;  // min-heap on (filed, seq)
  SimTime last_filed_ = SimTime(INT64_MIN);  // filed time of the last popped entry
  uint64_t next_seq_ = 0;
};

}  // namespace oasis

#endif  // OASIS_SRC_SIM_EVENT_QUEUE_H_
