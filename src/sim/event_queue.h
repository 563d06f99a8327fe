// Discrete-event queue.
//
// Events are closures scheduled at absolute simulated times. Closure state
// lives inline in the pooled slot table (EventClosure below, a fixed-capacity
// small-buffer type) and queue entries are trivially copyable 16-byte
// records, so Schedule and Pop perform no per-event heap allocation.
//
// The queue is a monotone radix queue: an entry sits in one of 65 FIFO
// buckets chosen by the highest bit in which its key differs from the key of
// the last popped entry, so Schedule is an append and Pop takes the front of
// bucket 0, refilling it from the lowest non-empty bucket when it runs dry.
// Pops come out in exactly (time, schedule order), the order of a binary
// heap on (time, seq); see Refill in event_queue.cc for why ties survive.
//
// Scheduling into the past (before the last popped event's time) has one
// defined meaning: the entry is filed at the last popped instant and runs
// next among that instant's events, after the ones already queued there.
// Pop still reports the entry's own (past) time, so the simulator's
// monotonicity checks see it. (A keyed event that pops ahead of every
// bucket entry leaves that instant where it was.)
//
// Every slot carries a sequence number from one counter, taken when the
// event is scheduled, so (time, seq) is the event's total order and its
// key. A caller may also reserve a number without scheduling anything
// (ReserveSeq) and file an event at that key later (ScheduleKeyed): it then
// runs exactly where an event scheduled at reservation time would have.
// Keyed events sit in a short sorted list beside the radix buckets, and Pop
// takes whichever of the two heads has the smaller key. The cluster keeps
// its migration completions as such reserved keys rather than events, and
// files one only when something must happen at that instant.
//
// Events cannot be cancelled. A component whose scheduled completion may go
// stale (an aborted migration, a crashed host's S3 transition) bumps an
// epoch it owns, and the closure returns early when the epoch has moved.

#ifndef OASIS_SRC_SIM_EVENT_QUEUE_H_
#define OASIS_SRC_SIM_EVENT_QUEUE_H_

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "src/common/inline_function.h"
#include "src/common/units.h"

namespace oasis {

// An event's closure: scheduling an event is a placement-new into the slot
// table, dispatching it one indirect call. The 48-byte cap keeps slot-table
// relocation cheap; see src/common/inline_function.h.
using EventClosure = InlineFunction<void(), 48>;
using EventFn = EventClosure;

class EventQueue {
 public:
  // Schedules `fn` at absolute time `when`. Ties break in schedule order.
  // A `when` before the last popped event's time is filed at that time
  // (see the header comment); Pop still reports `when`.
  void Schedule(SimTime when, EventFn fn);

  // Takes the next sequence number without scheduling anything.
  uint64_t ReserveSeq() { return next_seq_++; }
  // Schedules `fn` at the key (`when`, `seq`), where `seq` came from
  // ReserveSeq and `when` is not before the last popped event's time.
  void ScheduleKeyed(SimTime when, uint64_t seq, EventFn fn);

  bool empty() const { return size() == 0; }
  size_t size() const { return slots_.size() - free_slots_.size(); }

  // Time of the earliest pending event; SimTime::Max() when empty.
  SimTime NextTime() const;

  // Pops and returns the earliest pending event. Must not be empty. The
  // closure is moved out of the slot before the slot is recycled, so the
  // callable may freely schedule new events (which can reuse its old slot).
  struct Popped {
    SimTime time;
    uint64_t seq;
    EventFn fn;
  };
  Popped Pop();

 private:
  // Bucket b > 0 holds entries whose key differs from last_key_ first at bit
  // b - 1; bucket 0 holds entries at exactly last_key_.
  static constexpr int kBuckets = 65;

  struct Entry {
    uint64_t key;  // micros with the sign bit flipped: unsigned order == time order
    uint32_t slot;
  };
  static_assert(std::is_trivially_copyable_v<Entry>,
                "bucket moves must copy plain words");

  // The pooled closure storage. A slot is recycled as soon as its event is
  // popped. `time` is the time the event was scheduled for, which Pop
  // reports even when the entry was filed later.
  struct Slot {
    SimTime time;
    uint64_t seq;
    EventClosure closure;
  };

  // The lowest non-empty bucket above 0; some bucket above 0 must be
  // non-empty.
  int LowestBucket() const { return std::countr_zero(nonempty_) + 1; }
  static uint64_t MinKey(const std::vector<Entry>& bucket);  // bucket non-empty
  // Re-bases the queue on `min_key`, the smallest key of the lowest
  // non-empty bucket, and moves that bucket into the buckets below it.
  // Bucket 0 must be exhausted.
  void Refill(uint64_t min_key);
  // Claims a free slot for an event at (`when`, `seq`).
  uint32_t Store(SimTime when, uint64_t seq, EventFn fn);
  // Whether keyed entry `k` orders before bucket entry `e`.
  bool Before(const Entry& k, const Entry& e) const {
    return k.key < e.key || (k.key == e.key && slots_[k.slot].seq < slots_[e.slot].seq);
  }

  std::array<std::vector<Entry>, kBuckets> buckets_;
  size_t head_ = 0;        // next entry of buckets_[0] to pop
  uint64_t nonempty_ = 0;  // bit b - 1 set iff buckets_[b] is non-empty
  uint64_t last_key_ = 0;  // key of the last popped entry
  // Keyed events, sorted by descending (key, seq): the next one is last.
  std::vector<Entry> keyed_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
  uint64_t next_seq_ = 0;
};

}  // namespace oasis

#endif  // OASIS_SRC_SIM_EVENT_QUEUE_H_
