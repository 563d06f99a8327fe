// A cluster host: memory capacity, resident VMs, the ACPI power-state
// machine with Table 1 transition latencies, the attached low-power memory
// server, and exact energy accounting for all of it.

#ifndef OASIS_SRC_CLUSTER_HOST_H_
#define OASIS_SRC_CLUSTER_HOST_H_

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <span>
#include <vector>

#include "src/cluster/cluster_types.h"
#include "src/power/energy_meter.h"
#include "src/sim/simulator.h"

namespace oasis {

// Word j of the `span`-bit window of the bitset `bits` that starts at bit
// `first`: bit i of the result is bit first + 64 * j + i of `bits`, and bits
// past the window read 0. The window need not be 64-aligned (a home's starts
// at home * vms_per_home), and a ResidentSet's words are indexed the same
// way, so a home's residents combine with any per-VM bitset a word at a time.
inline uint64_t WindowWord(std::span<const uint64_t> bits, size_t first, size_t span, size_t j) {
  const size_t pos = first + 64 * j;
  const size_t w = pos / 64;
  const unsigned shift = pos % 64;
  uint64_t word = bits[w] >> shift;
  if (shift != 0 && w + 1 < bits.size()) {
    word |= bits[w + 1] << (64 - shift);
  }
  const size_t left = span - 64 * j;
  return left < 64 ? word & ((uint64_t{1} << left) - 1) : word;
}

// The VMs resident on one host: one bit per VM id of a fixed window, built
// once. A home's window is its own contiguous id range (a home only ever
// holds its own VMs), a consolidation host's is every VM in the rack.
// Insert, erase and membership are a bit flip or test; iteration yields the
// resident ids in ascending order, which every planner walk (and so every
// planning draw) depends on. Inserting or erasing an id outside the window
// asserts.
class ResidentSet {
 public:
  class Iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = VmId;
    using difference_type = std::ptrdiff_t;
    using pointer = const VmId*;
    using reference = VmId;

    VmId operator*() const {
      return base_ + static_cast<VmId>(64 * word_ + std::countr_zero(bits_));
    }
    Iterator& operator++() {
      bits_ &= bits_ - 1;
      Settle();
      return *this;
    }
    Iterator operator++(int) {
      Iterator before = *this;
      ++*this;
      return before;
    }
    bool operator==(const Iterator& other) const {
      return word_ == other.word_ && bits_ == other.bits_;
    }

   private:
    friend class ResidentSet;
    Iterator(const uint64_t* words, size_t num_words, size_t word, VmId base)
        : words_(words), num_words_(num_words), word_(word), base_(base) {
      if (word_ < num_words_) {
        bits_ = words_[word_];
        Settle();
      }
    }
    // Advances to the next set bit, or to end (word_ == num_words_).
    void Settle() {
      while (bits_ == 0 && ++word_ < num_words_) {
        bits_ = words_[word_];
      }
    }

    const uint64_t* words_ = nullptr;
    size_t num_words_ = 0;
    size_t word_ = 0;
    uint64_t bits_ = 0;
    VmId base_ = 0;
  };

  // Covers ids [base, base + span).
  ResidentSet(VmId base, size_t span) : base_(base), span_(span), words_((span + 63) / 64, 0) {}

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  bool contains(VmId vm) const {
    const size_t i = static_cast<size_t>(vm - base_);
    return vm >= base_ && i < span_ && ((words_[i / 64] >> (i % 64)) & 1) != 0;
  }
  // Both assert on an id outside the window, and on a VM already present
  // (insert) or absent (erase).
  void insert(VmId vm) {
    const size_t i = static_cast<size_t>(vm - base_);
    assert(vm >= base_ && i < span_ && "VM is outside this host's resident window");
    uint64_t& word = words_[i / 64];
    const uint64_t bit = uint64_t{1} << (i % 64);
    assert((word & bit) == 0 && "VM is already resident on this host");
    word |= bit;
    ++size_;
  }
  void erase(VmId vm) {
    const size_t i = static_cast<size_t>(vm - base_);
    assert(vm >= base_ && i < span_ && "VM is outside this host's resident window");
    uint64_t& word = words_[i / 64];
    const uint64_t bit = uint64_t{1} << (i % 64);
    assert((word & bit) != 0 && "VM is not resident on this host");
    word &= ~bit;
    --size_;
  }

  // Bit i of word j is VM base + 64 * j + i (see WindowWord).
  std::span<const uint64_t> words() const { return words_; }

  Iterator begin() const { return Iterator(words_.data(), words_.size(), 0, base_); }
  Iterator end() const { return Iterator(words_.data(), words_.size(), words_.size(), base_); }

 private:
  VmId base_;
  size_t span_;
  size_t size_ = 0;
  std::vector<uint64_t> words_;
};

// The kinds of event a rack-day queues (Event::kind) and the two words each
// carries. ClusterManager::Dispatch is the one switch over them.
enum class ClusterEvent : uint32_t {
  kRound,          // a: the round's index t
  kFault,          // a: index into the fault plan's events
  kSleepCheck,     // a: home host to put to sleep once its channel drained
  kWolRetry,       // a: host whose fault-delayed WoL goes out now
  kMigrationDone,  // a: VM, b: its op epoch (a keyed completion)
  kResumeDone,     // a: host, b: its transition epoch
  kSuspendDone,    // a: host, b: its transition epoch
};

inline Event MakeEvent(ClusterEvent kind, uint64_t a, uint64_t b = 0) {
  return Event{static_cast<uint32_t>(kind), a, b};
}

class ClusterHost {
 public:
  // Resolves the host's own hardware profile from the config's fleet mix
  // (config.HostProfileFor(id)) — the host's copy is authoritative: power
  // draw, S3 latencies, capacity and S3 capability all come from it, never
  // from config.host_power directly. An S3-incapable host ignores
  // `initially_powered = false` and starts the day powered (it has no
  // sleeping state to start in).
  ClusterHost(HostId id, HostRole role, const ClusterConfig& config, bool initially_powered);

  HostId id() const { return id_; }
  // The host's structural role (home vs consolidation, §3.1). All role
  // branching goes through this — never through id arithmetic against
  // num_home_hosts.
  HostRole role() const { return role_; }
  bool IsHomeHost() const { return role_ == HostRole::kHome; }
  bool IsConsolidationHost() const { return role_ == HostRole::kConsolidation; }
  HostPowerState power_state() const { return state_; }
  bool IsPowered() const { return state_ == HostPowerState::kPowered; }
  bool IsAsleep() const { return state_ == HostPowerState::kSleeping; }

  // --- Hardware profile ---------------------------------------------------
  // The host's resolved power curve + S3 latencies (class 0 == the config's
  // host_power). Strategies price per-host savings from these, never from
  // the global profile.
  const HostPowerProfile& power_profile() const { return power_; }
  // false: this host may sponsor guests but can never enter S3. The planner
  // and actuator both gate on it; a kSuspending transition anyway is an
  // invariant violation ("power.s3_on_incapable_host").
  bool s3_capable() const { return s3_capable_; }
  // Index into ClusterConfig::ResolvedProfile — strategies bucket pricing
  // by class so homogeneous fleets keep the legacy count*value arithmetic.
  int profile_class() const { return profile_class_; }

  // --- Capacity ---------------------------------------------------------
  uint64_t capacity_bytes() const { return capacity_bytes_; }
  uint64_t reserved_bytes() const { return reserved_bytes_; }
  uint64_t AvailableBytes() const { return capacity_bytes_ - reserved_bytes_; }
  bool CanFit(uint64_t bytes) const { return bytes <= AvailableBytes(); }
  void Reserve(uint64_t bytes) {
    assert(bytes <= AvailableBytes() && "host memory over-reserved");
    reserved_bytes_ += bytes;
  }
  void Release(uint64_t bytes) {
    assert(bytes <= reserved_bytes_ && "releasing more than reserved");
    reserved_bytes_ -= bytes;
  }

  // --- VM presence ------------------------------------------------------
  // Adding/removing VMs changes the host's power draw (which saturates at
  // the Table 1 twenty-VM measurement), so both take the current time and
  // first close the meter's segment (CloseSegment).
  // vms() walks residents in ascending id order (see ResidentSet). Adding a
  // resident VM, removing a non-resident one, or adding a VM outside the
  // host's window (another home's VM on a home) is a bookkeeping bug and
  // asserts.
  void AddVm(SimTime now, VmId vm) {
    CloseSegment(now);
    vms_.insert(vm);
  }
  void RemoveVm(SimTime now, VmId vm) {
    CloseSegment(now);
    vms_.erase(vm);
  }
  const ResidentSet& vms() const { return vms_; }
  bool HasVms() const { return !vms_.empty(); }
  bool HasVm(VmId vm) const { return vms_.contains(vm); }

  // Number of active VMs currently executing here. Purely logical (a host
  // with active VMs must never sleep); the draw follows the resident count.
  void SetActiveVms(SimTime now, int n) {
    assert(n >= 0);
    CloseSegment(now);
    active_vms_ = n;
  }
  int active_vms() const { return active_vms_; }

  // --- Power-state machine ------------------------------------------------
  // Wake-on-LAN, safe in any state. A sleeping host starts its resume and
  // schedules the kResumeDone that powers it; a wake while resuming joins
  // that resume, one while suspending queues behind the suspend, and one
  // while powered does nothing.
  void RequestWake(Simulator& sim);

  // Suspends to S3 once outstanding migrations drain (the caller gates on
  // that) and schedules the kSuspendDone; ignored unless currently powered.
  void RequestSleep(Simulator& sim);

  // Land the transition scheduled at transition epoch `epoch`: a resume
  // powers the host; a suspend puts it to sleep, then starts the resume a
  // wake queued during the suspend asked for. Each returns false and
  // changes nothing for a stale completion, one whose epoch a crash or a
  // later transition moved on.
  bool FinishResume(SimTime now, uint64_t epoch);
  bool FinishSuspend(Simulator& sim, uint64_t epoch);

  // Earliest time the host could be executing VMs if woken at `now`.
  SimTime EarliestPoweredTime(SimTime now) const;

  // Injected power loss: the host drops to kSleeping instantly (no S3 entry
  // latency), pending transitions and a wake queued behind a suspend are
  // discarded, and the memory server goes dark with it. The caller must have
  // relocated all resident VMs first — a crash is only modelled after its
  // recovery plan is in place, because a VM left behind would silently stop
  // being simulated.
  void Crash(SimTime now);

  // --- Outbound migration / inbound reintegration serialization ----------
  // Occupies the host's outbound migration path for `duration` starting no
  // earlier than `now`; returns the completion time.
  SimTime EnqueueOutboundMigration(SimTime now, SimTime duration);
  // Same for inbound reintegration transfers (the Fig 11 storm queue).
  SimTime EnqueueInboundTransfer(SimTime now, SimTime duration);
  SimTime outbound_busy_until() const { return outbound_busy_until_; }

  // --- Memory server ------------------------------------------------------
  void SetMemoryServerPowered(SimTime now, bool on);
  bool memory_server_powered() const { return ms_powered_; }

  // --- Energy -------------------------------------------------------------
  // Host energy (excluding the memory server) up to `now`.
  Joules HostEnergy(SimTime now);
  // Memory-server energy up to `now`.
  Joules MemoryServerEnergy(SimTime now);
  // Side-effect-free views of the same integrals for the invariant checker:
  // the meters stay untouched, so checking cannot perturb the simulation.
  Joules HostEnergyAt(SimTime now) const { return meter_.EnergyAt(now, CurrentDraw()); }
  Joules MemoryServerEnergyAt(SimTime now) const { return ms_meter_.EnergyAt(now); }
  const StateTimeLedger& ledger() const { return ledger_; }
  void AdvanceLedger(SimTime now) { ledger_.Advance(now); }

 private:
  ClusterHost(HostId id, HostRole role, const ClusterConfig& config,
              const HostProfile& profile, bool initially_powered);
  void Transition(SimTime now, HostPowerState next);
  Watts CurrentDraw() const;
  // Every change to the state the draw follows (residents, power state; the
  // active count too) calls this first: once time has advanced, it closes
  // the meter's segment at the draw of the state that held through it
  // (EnergyMeter::CloseSegment), so the host prices one draw per instant.
  void CloseSegment(SimTime now) {
    meter_.CloseSegment(now, [this] { return CurrentDraw(); });
  }

  HostId id_;
  HostRole role_;
  HostPowerProfile power_;
  bool s3_capable_ = true;
  int profile_class_ = 0;
  Watts ms_watts_;
  uint64_t capacity_bytes_;
  uint64_t reserved_bytes_ = 0;
  ResidentSet vms_;
  int active_vms_ = 0;

  HostPowerState state_;
  uint64_t transition_epoch_ = 0;  // invalidates stale scheduled transitions
  bool wake_after_suspend_ = false;

  SimTime outbound_busy_until_;
  SimTime inbound_busy_until_;

  bool ms_powered_ = false;
  EnergyMeter meter_;
  EnergyMeter ms_meter_;
  StateTimeLedger ledger_;
};

}  // namespace oasis

#endif  // OASIS_SRC_CLUSTER_HOST_H_
