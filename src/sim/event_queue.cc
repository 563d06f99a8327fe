#include "src/sim/event_queue.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <utility>

namespace oasis {
namespace {

constexpr uint32_t kSlotBits = 32;
constexpr uint64_t kSignBit = uint64_t{1} << 63;

EventId MakeId(uint32_t slot, uint32_t generation) {
  return (static_cast<EventId>(generation) << kSlotBits) | slot;
}

uint32_t SlotOf(EventId id) { return static_cast<uint32_t>(id); }
uint32_t GenerationOf(EventId id) { return static_cast<uint32_t>(id >> kSlotBits); }

// Flipping the sign bit maps signed micros onto unsigned keys in the same
// order, so INT64_MIN is key 0 and SimTime::Max() is the largest key.
uint64_t KeyOf(SimTime t) { return static_cast<uint64_t>(t.micros()) ^ kSignBit; }
SimTime TimeOf(uint64_t key) { return SimTime(static_cast<int64_t>(key ^ kSignBit)); }

int BucketOf(uint64_t key, uint64_t base) { return std::bit_width(key ^ base); }

}  // namespace

EventId EventQueue::Schedule(SimTime when, EventFn fn) {
  uint32_t slot_index;
  if (!free_slots_.empty()) {
    slot_index = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot_index = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& slot = slots_[slot_index];
  // Generations start at 1 so no valid id ever equals kInvalidEventId.
  ++slot.generation;
  slot.live = true;
  slot.time = when;
  slot.closure = std::move(fn);
  // A key below the last popped one would break the radix invariant; file
  // it at the last popped instant instead (the past-scheduling rule).
  const uint64_t key = std::max(KeyOf(when), last_key_);
  const int b = BucketOf(key, last_key_);
  buckets_[b].push_back(Entry{key, slot_index, slot.generation});
  if (b > 0) {
    nonempty_ |= uint64_t{1} << (b - 1);
  }
  ++live_count_;
  return MakeId(slot_index, slot.generation);
}

bool EventQueue::Cancel(EventId id) {
  uint32_t slot_index = SlotOf(id);
  if (slot_index >= slots_.size()) {
    return false;
  }
  Slot& slot = slots_[slot_index];
  if (!slot.live || slot.generation != GenerationOf(id)) {
    return false;
  }
  // Tombstone: the queue entry stays (its generation no longer matches once
  // the slot is recycled, and `live` is false until then) and is dropped when
  // it reaches the front or its bucket is next scanned. The closure dies
  // here — capture destructors run inline — and the slot is immediately
  // reusable.
  slot.live = false;
  slot.closure.Reset();
  free_slots_.push_back(slot_index);
  --live_count_;
  ++dead_;
  return true;
}

void EventQueue::SkipCancelled() const {
  const std::vector<Entry>& front = buckets_[0];
  while (dead_ > 0 && head_ < front.size() && !EntryLive(front[head_])) {
    ++head_;
    --dead_;
  }
}

int EventQueue::LowestBucket() const {
  while (nonempty_ != 0) {
    const int b = std::countr_zero(nonempty_) + 1;
    if (dead_ == 0) {
      return b;
    }
    // Stable purge: the survivors keep their order, which Refill relies on.
    const size_t purged =
        std::erase_if(buckets_[b], [this](const Entry& e) { return !EntryLive(e); });
    dead_ -= purged;
    if (!buckets_[b].empty()) {
      return b;
    }
    nonempty_ &= ~(uint64_t{1} << (b - 1));
  }
  return 0;
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
  SkipCancelled();
  if (head_ < buckets_[0].size()) {
    return slots_[buckets_[0][head_].slot].time;
  }
  // Peek without re-basing: a caller may still schedule below the pending
  // minimum (but not below the last pop) before the next Pop.
  const int b = LowestBucket();
  return b == 0 ? SimTime::Max() : TimeOf(MinKey(buckets_[b]));
}

void EventQueue::Refill() {
  const int b = LowestBucket();
  assert(b != 0 && "Pop() on empty EventQueue");
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
  for (;;) {
    SkipCancelled();
    if (head_ < front.size()) {
      break;
    }
    front.clear();
    head_ = 0;
    Refill();
  }
  const Entry top = front[head_++];
  Slot& slot = slots_[top.slot];
  // Move the closure to the caller before recycling the slot: the callable
  // may schedule new events, which may claim this very slot (or grow the
  // slot table and invalidate references into it).
  EventFn fn = std::move(slot.closure);
  slot.live = false;
  free_slots_.push_back(top.slot);
  --live_count_;
  return Popped{slot.time, MakeId(top.slot, top.generation), std::move(fn)};
}

}  // namespace oasis
