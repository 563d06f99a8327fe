#include "src/sim/event_queue.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <utility>

namespace oasis {
namespace {

constexpr uint64_t kSignBit = uint64_t{1} << 63;

// Flipping the sign bit maps signed micros onto unsigned keys in the same
// order, so INT64_MIN is key 0 and SimTime::Max() is the largest key.
uint64_t KeyOf(SimTime t) { return static_cast<uint64_t>(t.micros()) ^ kSignBit; }
SimTime TimeOf(uint64_t key) { return SimTime(static_cast<int64_t>(key ^ kSignBit)); }

int BucketOf(uint64_t key, uint64_t base) { return std::bit_width(key ^ base); }

}  // namespace

uint32_t EventQueue::Store(SimTime when, uint64_t seq, EventFn fn) {
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
  slot.seq = seq;
  slot.closure = std::move(fn);
  return slot_index;
}

void EventQueue::Schedule(SimTime when, EventFn fn) {
  const uint32_t slot_index = Store(when, next_seq_++, std::move(fn));
  // A key below the last popped one would break the radix invariant; file
  // it at the last popped instant instead (the past-scheduling rule).
  const uint64_t key = std::max(KeyOf(when), last_key_);
  const int b = BucketOf(key, last_key_);
  buckets_[b].push_back(Entry{key, slot_index});
  if (b > 0) {
    nonempty_ |= uint64_t{1} << (b - 1);
  }
}

void EventQueue::ScheduleKeyed(SimTime when, uint64_t seq, EventFn fn) {
  assert(seq < next_seq_ && "ScheduleKeyed needs a reserved sequence number");
  assert(KeyOf(when) >= last_key_ && "a keyed event cannot run in the past");
  const Entry entry{KeyOf(when), Store(when, seq, std::move(fn))};
  // Few keyed events are pending at once, so a sorted insert is cheapest.
  auto at = std::find_if(keyed_.begin(), keyed_.end(),
                         [&](const Entry& e) { return Before(e, entry); });
  keyed_.insert(at, entry);
}

uint64_t EventQueue::MinKey(const std::vector<Entry>& bucket) {
  assert(!bucket.empty());
  uint64_t min_key = bucket.front().key;
  for (const Entry& e : bucket) {
    min_key = std::min(min_key, e.key);
  }
  return min_key;
}

SimTime EventQueue::NextTime() const {
  SimTime next = keyed_.empty() ? SimTime::Max() : slots_[keyed_.back().slot].time;
  if (head_ < buckets_[0].size()) {
    return std::min(next, slots_[buckets_[0][head_].slot].time);
  }
  // Peek without re-basing: a caller may still schedule below the pending
  // minimum (but not below the last pop) before the next Pop.
  return nonempty_ == 0 ? next : std::min(next, TimeOf(MinKey(buckets_[LowestBucket()])));
}

void EventQueue::Refill(uint64_t min_key) {
  const int b = LowestBucket();
  std::vector<Entry>& source = buckets_[b];
  last_key_ = min_key;
  // Every entry of bucket b agrees with the new base above bit b - 1, so it
  // lands in a bucket below b, all of which are empty now (b is the lowest
  // non-empty one and bucket 0 is exhausted). Moving the entries in bucket
  // order therefore keeps equal keys in schedule order: a bucket only ever
  // holds one such moved batch followed by later Schedule appends.
  for (const Entry& e : source) {
    const int to = BucketOf(e.key, last_key_);
    buckets_[to].push_back(e);
    if (to > 0) {
      nonempty_ |= uint64_t{1} << (to - 1);
    }
  }
  source.clear();
  nonempty_ &= ~(uint64_t{1} << (b - 1));
}

EventQueue::Popped EventQueue::Pop() {
  std::vector<Entry>& front = buckets_[0];
  if (head_ == front.size() && nonempty_ != 0) {
    // A keyed event ahead of every bucket entry pops without re-basing, so
    // what it schedules may still land below the buckets' minimum.
    const uint64_t min_key = MinKey(buckets_[LowestBucket()]);
    if (keyed_.empty() || keyed_.back().key >= min_key) {
      front.clear();
      head_ = 0;
      Refill(min_key);
    }
  }
  uint32_t index;
  if (!keyed_.empty() && (head_ == front.size() || Before(keyed_.back(), front[head_]))) {
    index = keyed_.back().slot;
    keyed_.pop_back();
  } else {
    assert(head_ < front.size() && "Pop() on empty EventQueue");
    index = front[head_++].slot;
  }
  Slot& slot = slots_[index];
  // Move the closure to the caller before recycling the slot: the callable
  // may schedule new events, which may claim this very slot (or grow the
  // slot table and invalidate references into it).
  EventFn fn = std::move(slot.closure);
  free_slots_.push_back(index);
  return Popped{slot.time, slot.seq, std::move(fn)};
}

}  // namespace oasis
