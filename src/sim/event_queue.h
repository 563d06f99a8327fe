// Cancellable discrete-event queue.
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
// monotonicity checks see it.
//
// Cancellation destroys the closure eagerly (captured state is released the
// moment Cancel returns) and flips a generation-checked tombstone; the dead
// entry is skipped when it reaches the front. EventIds encode
// (slot, generation), so a stale id held across slot reuse can never cancel
// the wrong event.

#ifndef OASIS_SRC_SIM_EVENT_QUEUE_H_
#define OASIS_SRC_SIM_EVENT_QUEUE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/inline_function.h"
#include "src/common/units.h"

namespace oasis {

// An event's closure: scheduling an event is a placement-new into the slot
// table, dispatching it one indirect call. The 48-byte cap keeps slot-table
// relocation cheap; see src/common/inline_function.h.
using EventClosure = InlineFunction<void(), 48>;
using EventFn = EventClosure;
using EventId = uint64_t;

inline constexpr EventId kInvalidEventId = 0;

class EventQueue {
 public:
  // Schedules `fn` at absolute time `when`. Ties break in schedule order.
  // A `when` before the last popped event's time is filed at that time
  // (see the header comment); Pop still reports `when`.
  EventId Schedule(SimTime when, EventFn fn);

  // Cancels a pending event; returns false if it already ran or was
  // cancelled. The closure is destroyed before Cancel returns — captured
  // state (shared_ptrs, handles) is released immediately, not when the
  // tombstoned entry eventually surfaces.
  bool Cancel(EventId id);

  bool empty() const { return live_count_ == 0; }
  size_t size() const { return live_count_; }

  // Time of the earliest pending event; SimTime::Max() when empty.
  SimTime NextTime() const;

  // Pops and returns the earliest pending event. Must not be empty. The
  // closure is moved out of the slot before the slot is recycled, so the
  // callable may freely schedule new events (which can reuse its old slot).
  struct Popped {
    SimTime time;
    EventId id;
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
    uint32_t generation;
  };
  static_assert(std::is_trivially_copyable_v<Entry>,
                "bucket moves must copy plain words");

  // Per-slot liveness plus the pooled closure storage; ids are
  // (generation << 32) | slot. A slot is recycled as soon as its event runs
  // or is cancelled — the generation bump makes any queue entry or EventId
  // still referring to the old tenant inert. `time` is the time the event was
  // scheduled for, which Pop reports even when the entry was filed later.
  struct Slot {
    uint32_t generation = 0;
    bool live = false;
    SimTime time;
    EventClosure closure;
  };

  bool EntryLive(const Entry& entry) const {
    const Slot& slot = slots_[entry.slot];
    return slot.live && slot.generation == entry.generation;
  }
  // Drops tombstoned entries off the front of bucket 0.
  void SkipCancelled() const;
  // The lowest non-empty bucket above 0 after purging its tombstones, or 0
  // when every bucket above 0 is empty.
  int LowestBucket() const;
  static uint64_t MinKey(const std::vector<Entry>& bucket);  // bucket non-empty
  // Re-bases the queue on the smallest pending key and moves the lowest
  // non-empty bucket into the buckets below it. Bucket 0 must be exhausted.
  void Refill();

  // NextTime is const but drops tombstones, hence the mutable members; it
  // never moves last_key_.
  mutable std::array<std::vector<Entry>, kBuckets> buckets_;
  mutable size_t head_ = 0;        // next entry of buckets_[0] to pop
  mutable uint64_t nonempty_ = 0;  // bit b - 1 set iff buckets_[b] is non-empty
  mutable size_t dead_ = 0;        // tombstoned entries still in the buckets
  uint64_t last_key_ = 0;          // key of the last popped entry
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
  size_t live_count_ = 0;
};

}  // namespace oasis

#endif  // OASIS_SRC_SIM_EVENT_QUEUE_H_
