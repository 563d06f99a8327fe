// Read-only cluster snapshot consumed by consolidation strategies.
//
// The control plane is layered (see DESIGN.md, "Control-plane layering"):
//
//   ClusterView  — what a strategy may *read*: hosts, VM slots, residency,
//                  working-set/dirty accounting, power states, plus the two
//                  deterministic planning streams (random choice and
//                  working-set sampling).
//   Strategy     — decides *what* to do each interval (src/cluster/strategy.h).
//   Actuator     — the only layer that may *mutate* hosts and VM slots
//                  (src/cluster/actuator.h).
//
// A strategy holds no state of its own and receives nothing but a view and
// an actuator, so by construction it can neither touch a host directly nor
// smuggle information between intervals. The one carve-out is per-interval
// scratch, such as OasisGreedyStrategy's vacate item table, which is kept
// only to reuse its allocation, is overwritten whole before it is read, and
// never carries anything from one interval to the next.

#ifndef OASIS_SRC_CLUSTER_VIEW_H_
#define OASIS_SRC_CLUSTER_VIEW_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/cluster/cluster_types.h"
#include "src/cluster/host.h"
#include "src/common/rng.h"
#include "src/mem/working_set.h"

namespace oasis {

// The cluster's entire mutable state, owned by ClusterManager. Hosts are
// stored homes-first in id order (host id == index); VM slots in id order
// (vm id == index). Only the Actuator mutates it (plus the owning manager,
// which applies the activity trace); strategies read it through ClusterView.
struct ClusterState {
  std::vector<std::unique_ptr<ClusterHost>> hosts;
  std::vector<VmSlot> vms;
  // Whether each VM has ever uploaded its compressed image to its memory
  // server (the first upload ships the whole touched image, later ones only
  // the delta, §4.4.2).
  std::vector<bool> vm_ever_uploaded;
  // Per host: when a fault-delayed wake will have the host powered
  // (SimTime::Zero() = no delayed wake pending).
  std::vector<SimTime> pending_wake_powered_at;
  // Home host h owns the VM ids [h * vms_per_home, (h + 1) * vms_per_home),
  // and a VM's home never changes (documented deviation from the paper), so
  // a home-keyed walk visits that slice of the VM table and nothing else.
  size_t vms_per_home = 0;
  std::span<VmSlot> VmsOfHome(HostId home) {
    return std::span<VmSlot>(vms).subspan(home * vms_per_home, vms_per_home);
  }
  // Maintained aggregates, each updated in O(1) by the Actuator's funnel
  // (RelocateGroup / SetInFlight) and re-derived from scratch by the invariant
  // checker every planning round. The counts are indexed by host id. Per
  // home host: how many of its VMs have kPartial residency (the
  // memory-server refresh on every host sleep reads it) ...
  std::vector<int> partials_homed;
  // ... and how many have kFullAtConsolidation (the swap pass skips homes
  // with none).
  std::vector<int> fac_homed;
  // Per VM, bit v % 64 of word v / 64: set iff VM v has kFullAtConsolidation
  // residency. The swap pass walks only the set bits of a home's id range.
  std::vector<uint64_t> fac_vm_bits;
  // Per host: how many residents have a migration in flight (such a home is
  // not vacate-eligible, such a consolidation host cannot drain) and how
  // many are partial VMs (a drain source must hold nothing else).
  std::vector<int> inflight_residents;
  std::vector<int> partial_residents;
  // Lazy partial-VM upkeep (DESIGN.md, "Lazy upkeep"). The rounds run so
  // far, and per host how many residents are upkeep-eligible: a host's round
  // reserves their growth in one step and leaves their slots alone, and an
  // eligible VM's counters catch up only when it is settled.
  uint32_t upkeep_round = 0;
  std::vector<int> upkeep_residents;
  // Per VM, bit v % 64 of word v / 64: set iff VM v is trusted idle, i.e.
  // idle in the activity rows of the last idle_smoothing_intervals + 1
  // planning rounds (§3.1's smoothing window over the resource-usage
  // monitor). Derived by the manager every round; before round 0 it reads
  // "idle at row 0".
  std::vector<uint64_t> trusted_idle;
  // Every migration completion not yet retired, in no particular order.
  std::vector<PendingCompletion> completions;
  // Resolved once from the config; never changes.
  UpkeepRates upkeep;
};

// The strategies' window onto ClusterState. Cheap to construct (five
// pointers); valid only while the owning ClusterManager is alive and only
// within the planning call it was handed to.
class ClusterView {
 public:
  // `active_row` is the activity row the last planning round applied: bit v
  // is set iff VM v is active, as its slot's activity says.
  ClusterView(const ClusterConfig& config, const ClusterState& state, Rng* planning_rng,
              WorkingSetSampler* ws_sampler, const uint64_t* active_row)
      : config_(&config),
        state_(&state),
        rng_(planning_rng),
        ws_sampler_(ws_sampler),
        active_row_(active_row) {}

  const ClusterConfig& config() const { return *config_; }
  size_t num_hosts() const { return state_->hosts.size(); }
  size_t num_vms() const { return state_->vms.size(); }
  const ClusterHost& host(HostId id) const { return *state_->hosts[id]; }
  const VmSlot& vm(VmId id) const { return state_->vms[id]; }

  // The deterministic planning streams. Both advance a cursor shared with
  // the whole simulation, so *when* a strategy draws is part of its
  // observable behavior, pinned by every golden. Strategies must draw only
  // while planning (never store the refs).
  Rng& planning_rng() const { return *rng_; }
  uint64_t SampleWorkingSet() const { return ws_sampler_->Sample(); }
  // The next `n` working sets into out[0, n): the same draws as `n` calls
  // of SampleWorkingSet.
  void TakeWorkingSets(size_t n, uint64_t* out) const { ws_sampler_->Take(n, out); }

  // The maintained aggregates (see ClusterState).
  int fac_homed(HostId home) const { return state_->fac_homed[home]; }
  std::span<const uint64_t> fac_vm_bits() const { return state_->fac_vm_bits; }
  int inflight_residents(HostId host) const { return state_->inflight_residents[host]; }
  int partial_residents(HostId host) const { return state_->partial_residents[host]; }

  // Idle long enough that the idleness detector trusts it (see
  // ClusterState::trusted_idle).
  std::span<const uint64_t> trusted_idle_bits() const { return state_->trusted_idle; }
  bool trusted_idle(VmId vm) const { return (state_->trusted_idle[vm / 64] >> (vm % 64)) & 1; }
  // Active in the applied activity row.
  std::span<const uint64_t> active_bits() const {
    return std::span<const uint64_t>(active_row_, state_->trusted_idle.size());
  }

  // Word j of home `home`'s window of the per-VM bitset `bits` (WindowWord):
  // bit i is VM home * vms_per_home + 64 * j + i, the same VM as bit i of
  // word j of the home's resident set.
  uint64_t HomeWord(std::span<const uint64_t> bits, HostId home, size_t j) const {
    const size_t n = state_->vms_per_home;
    return WindowWord(bits, home * n, n, j);
  }
  // Whether every VM resident on home host `home` is trusted idle: no
  // resident bit without its trusted bit.
  bool TrustedIdleHome(HostId home) const {
    const std::span<const uint64_t> resident = host(home).vms().words();
    for (size_t j = 0; j < resident.size(); ++j) {
      if ((resident[j] & ~HomeWord(state_->trusted_idle, home, j)) != 0) {
        return false;
      }
    }
    return true;
  }

  // A VM's working-set reservation, including growth its host has already
  // reserved but its slot does not yet show. Strategies read it here, never
  // from VmSlot::ws_bytes.
  uint64_t ws_bytes(const VmSlot& vm) const {
    return state_->upkeep.SettledWsBytes(vm, state_->upkeep_round);
  }

 private:
  const ClusterConfig* config_;
  const ClusterState* state_;
  Rng* rng_;
  WorkingSetSampler* ws_sampler_;
  const uint64_t* active_row_;
};

}  // namespace oasis

#endif  // OASIS_SRC_CLUSTER_VIEW_H_
