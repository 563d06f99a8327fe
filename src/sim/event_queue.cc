#include "src/sim/event_queue.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace oasis {

void EventQueue::Push(SimTime filed, uint64_t seq, SimTime when, EventFn fn) {
  uint32_t slot_index;
  if (!free_slots_.empty()) {
    slot_index = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot_index = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& slot = slots_[slot_index];
  slot.time = when;
  slot.closure = std::move(fn);
  heap_.push_back(Entry{filed, seq, slot_index});
  std::push_heap(heap_.begin(), heap_.end(), PopsLater{});
}

void EventQueue::Schedule(SimTime when, EventFn fn) {
  Push(std::max(when, last_filed_), next_seq_++, when, std::move(fn));
}

void EventQueue::ScheduleKeyed(SimTime when, uint64_t seq, EventFn fn) {
  assert(seq < next_seq_ && "ScheduleKeyed needs a reserved sequence number");
  assert(when >= last_filed_ && "a keyed event cannot run in the past");
  Push(when, seq, when, std::move(fn));
}

EventQueue::Popped EventQueue::Pop() {
  assert(!heap_.empty() && "Pop() on empty EventQueue");
  std::pop_heap(heap_.begin(), heap_.end(), PopsLater{});
  const Entry entry = heap_.back();
  heap_.pop_back();
  last_filed_ = entry.filed;
  Slot& slot = slots_[entry.slot];
  // Move the closure to the caller before recycling the slot: the callable
  // may schedule new events, which may claim this very slot (or grow the
  // slot table and invalidate references into it).
  EventFn fn = std::move(slot.closure);
  free_slots_.push_back(entry.slot);
  return Popped{slot.time, entry.seq, std::move(fn)};
}

}  // namespace oasis
