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

void EventQueue::Schedule(SimTime when, EventFn fn) {
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
  // A key below the last popped one would break the radix invariant; file
  // it at the last popped instant instead (the past-scheduling rule).
  const uint64_t key = std::max(KeyOf(when), last_key_);
  const int b = BucketOf(key, last_key_);
  buckets_[b].push_back(Entry{key, slot_index});
  if (b > 0) {
    nonempty_ |= uint64_t{1} << (b - 1);
  }
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
  if (head_ < buckets_[0].size()) {
    return slots_[buckets_[0][head_].slot].time;
  }
  // Peek without re-basing: a caller may still schedule below the pending
  // minimum (but not below the last pop) before the next Pop.
  return nonempty_ == 0 ? SimTime::Max() : TimeOf(MinKey(buckets_[LowestBucket()]));
}

void EventQueue::Refill() {
  assert(nonempty_ != 0 && "Pop() on empty EventQueue");
  const int b = LowestBucket();
  std::vector<Entry>& source = buckets_[b];
  last_key_ = MinKey(source);
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
  if (head_ == front.size()) {
    front.clear();
    head_ = 0;
    Refill();
  }
  const uint32_t index = front[head_++].slot;
  Slot& slot = slots_[index];
  // Move the closure to the caller before recycling the slot: the callable
  // may schedule new events, which may claim this very slot (or grow the
  // slot table and invalidate references into it).
  EventFn fn = std::move(slot.closure);
  free_slots_.push_back(index);
  return Popped{slot.time, std::move(fn)};
}

}  // namespace oasis
