#include "src/sim/event_queue.h"

#include <algorithm>
#include <cassert>

namespace oasis {

void EventQueue::Push(const Entry& entry) {
  heap_.push_back(entry);
  std::push_heap(heap_.begin(), heap_.end(), PopsLater{});
}

void EventQueue::Schedule(SimTime when, Event ev) {
  Push(Entry{std::max(when, last_filed_), next_seq_++, when, ev});
}

void EventQueue::ScheduleKeyed(SimTime when, uint64_t seq, Event ev) {
  assert(seq < next_seq_ && "ScheduleKeyed needs a reserved sequence number");
  assert(when >= last_filed_ && "a keyed event cannot run in the past");
  Push(Entry{when, seq, when, ev});
}

EventQueue::Popped EventQueue::Pop() {
  assert(!heap_.empty() && "Pop() on empty EventQueue");
  std::pop_heap(heap_.begin(), heap_.end(), PopsLater{});
  const Entry entry = heap_.back();
  heap_.pop_back();
  last_filed_ = entry.filed;
  return Popped{entry.time, entry.seq, entry.event};
}

}  // namespace oasis
