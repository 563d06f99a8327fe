// Shared types for the Oasis cluster manager and its trace-driven simulation.

#ifndef OASIS_SRC_CLUSTER_CLUSTER_TYPES_H_
#define OASIS_SRC_CLUSTER_CLUSTER_TYPES_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/units.h"
#include "src/fault/fault.h"
#include "src/hyper/migration_model.h"
#include "src/hyper/vm.h"
#include "src/power/host_profile.h"
#include "src/power/power_model.h"

namespace oasis {

// The §3.2 consolidation policies, plus the partial-only baseline §5.3
// evaluates against. These are variants *within* the Oasis greedy strategy
// family; the orthogonal ConsolidationStrategy axis (src/cluster/strategy.h)
// swaps out the whole planning algorithm.
enum class ConsolidationPolicy {
  kOnlyPartial,   // never full-migrate; a home sleeps only when all its VMs are idle
  kDefault,       // hybrid; consolidated VMs keep their form until capacity runs out
  kFullToPartial, // idle full VMs on consolidation hosts are re-consolidated as partials
  kNewHome,       // active partials that run out of room move to any powered host
};

const char* ConsolidationPolicyName(ConsolidationPolicy p);

// A host's structural role in the rack (§3.1): home hosts own VMs and their
// memory servers; consolidation hosts only ever host guests and start the
// day asleep. The role is carried on every ClusterHost — code must branch on
// it rather than on id arithmetic against num_home_hosts.
enum class HostRole { kHome, kConsolidation };

// CPU side of §3 assumption 1: a host executes at most 16 cores x 3 *active*
// 1-vCPU VMs ("over-committing CPU by a factor of 3 is regarded as a safe
// practice"). Idle and partial VMs consume no accountable CPU. With the
// default 128 GiB hosts the memory bound (32 full VMs) binds first, which is
// exactly the paper's point.
inline constexpr int kMaxActiveVmsPerHost = 48;

struct ClusterConfig {
  int num_home_hosts = 30;
  int num_consolidation_hosts = 4;
  int vms_per_home = 30;
  uint64_t host_memory_bytes = 128 * kGiB;
  // Each VM's allocation. It also caps the idle working sets, which are
  // drawn from the §5.1 distribution (WorkingSetDistribution's defaults).
  uint64_t vm_memory_bytes = 4 * kGiB;
  // Memory over-commitment via ballooning/de-duplication (§3 assumption 1:
  // "a factor of 1.5" is regarded as safe). Scales every host's effective
  // capacity; 1.0 disables over-commitment.
  double memory_overcommit = 1.0;
  ConsolidationPolicy policy = ConsolidationPolicy::kFullToPartial;
  // Which ConsolidationStrategy plans each interval (src/cluster/strategy.h).
  // Must name a registered strategy; the default is the paper's greedy
  // algorithm. Override per process with OASIS_POLICY (see
  // ApplyPolicyOverride).
  std::string strategy_name = "oasis-greedy";
  SimTime planning_interval = SimTime::Seconds(300);
  // A VM counts as idle for consolidation decisions only after this many
  // consecutive idle intervals (§3.1 determines idleness from resource-usage
  // monitoring, e.g. page-dirtying rate, which needs a sampling window; it
  // also keeps momentary pauses from triggering migration ping-pong).
  int idle_smoothing_intervals = 2;
  HostPowerProfile host_power;
  // Per-host hardware generations (src/power/host_profile.h). Fleet
  // segments cover hosts [0, CoveredHosts()) in order; every host past the
  // covered prefix — and the whole cluster when the mix is empty, the
  // default — resolves to profile class 0, whose power curve is exactly
  // `host_power`. Catalog generations additionally pick up the compounded
  // SetVmsPerHome scale via `fleet_power_scale`.
  FleetMix fleet;
  double fleet_power_scale = 1.0;
  MemoryServerProfile memory_server_power;
  uint64_t seed = 42;
  // Fault injection (disabled by default; a disabled config is guaranteed
  // not to perturb the simulation in any way).
  FaultConfig fault;

  int TotalVms() const { return num_home_hosts * vms_per_home; }
  int TotalHosts() const { return num_home_hosts + num_consolidation_hosts; }

  // --- fleet resolution -----------------------------------------------------
  // Profile classes: 0 is the default (host_power, S3-capable, scale 1.0);
  // class c >= 1 is fleet segment c-1's catalog generation. Strategies price
  // plans per class with integer counts (power_delta.h).
  int NumProfileClasses() const { return 1 + static_cast<int>(fleet.segments.size()); }
  int ProfileClassOf(HostId id) const;
  HostProfile ResolvedProfile(int profile_class) const;
  HostProfile HostProfileFor(HostId id) const { return ResolvedProfile(ProfileClassOf(id)); }

  // Rejects configurations the simulation cannot represent, most notably a
  // home host without enough memory for its own VMs.
  Status Validate() const;

  // Scales host capacity (and, capacity-proportionally, host power) so each
  // home host can carry `vms` VMs with the same relative headroom the
  // default 30-VM/128-GiB configuration has — the Fig 12 "vary the server
  // capacity" knob.
  void SetVmsPerHome(int vms);
};

// Cluster-level VM bookkeeping. Unlike hyper::Vm this carries aggregate byte
// counters instead of page bitmaps, so 900-VM day simulations stay cheap;
// migrations charge the §5.1 constants of the migration cost table.
struct VmSlot {
  // The enum fields are bytes and the fields run largest first, so a slot
  // takes 72 bytes: the per-home walks and every move read slots.
  // The partial-VM byte counters. While the VM is upkeep-eligible they lag
  // by the upkeep rounds since upkeep_mark (DESIGN.md, "Lazy upkeep"): read
  // them through ClusterView::ws_bytes or UpkeepRates::Settled, or settle
  // the VM first.
  uint64_t ws_bytes = 0;        // current idle working-set reservation (partial only)
  uint64_t ws_unfetched = 0;    // portion of the working set not yet faulted in
  uint64_t dirty_bytes = 0;     // dirtied while consolidated (reintegration volume)
  SimTime activation_time;      // when the user became active (delay accounting)
  SimTime migration_start;      // when this VM's own transfer begins (see PendingOp)
  VmId id = 0;
  HostId home = kNoHost;        // owner of the VM's full image / memory server
  HostId location = kNoHost;    // where the VM currently executes
  // The upkeep rounds already applied to the byte counters; meaningful only
  // while the VM is upkeep-eligible.
  uint32_t upkeep_mark = 0;
  HostId migration_source = kNoHost;
  uint32_t op_epoch = 0;        // invalidates pending completions after an abort
  VmActivity activity = VmActivity::kIdle;
  VmResidency residency = VmResidency::kFullAtHome;
  bool migration_in_flight = false;
  bool activation_pending = false;  // went active while a migration was in flight

  // In-flight operation bookkeeping. Outbound migrations serialize on the
  // source host, so a VM late in the queue has not actually been suspended
  // yet; if its user comes back before `migration_start`, the agent aborts
  // the pending move and the VM keeps running where it was.
  enum class PendingOp : uint8_t {
    kNone,
    kVacatePartial,   // home -> consolidation, as a partial VM
    kSwapReturn,      // FulltoPartial round trip, ending partial at the source
    kDrainMove,       // consolidation -> consolidation partial move
    kReturnMove,      // group return: partial reintegrating to its home
    kFullReturnMove,  // group return: idle full VM live-migrating home
    kOther,           // not abortable (conversions, requester reintegration)
  };
  PendingOp pending_op = PendingOp::kNone;

  // Partial and not mid-migration: every planning round drains its
  // on-demand pages, grows its dirty state and grows its working set.
  bool UpkeepEligible() const { return residency == VmResidency::kPartial && !migration_in_flight; }
};
static_assert(sizeof(VmSlot) == 72);

// One scheduled migration completion (DESIGN.md, "Migration completions"):
// the migration of `vm` whose op_epoch was `epoch` lands at the simulator
// key (done, seq). While that key is ahead of the current event's key the
// VM is in flight; once it is behind, the actuator retires the entry in
// its next batch. An entry whose epoch no longer matches the VM's was
// aborted or superseded and retires as a no-op.
struct PendingCompletion {
  SimTime done;
  uint64_t seq = 0;
  VmId vm = 0;
  uint32_t epoch = 0;
};

// A partial VM's byte counters, plus the on-demand fetches it took to reach
// them.
struct UpkeepCounters {
  uint64_t ws_bytes = 0;
  uint64_t ws_unfetched = 0;
  uint64_t dirty_bytes = 0;
  uint64_t fetched_bytes = 0;
  uint64_t fetches = 0;
};

// The three per-round processes §4.4.3 gives every upkeep-eligible VM, in
// closed form over a run of rounds (DESIGN.md, "Lazy upkeep"). Each round
// fetches Fetch(ws_unfetched) on demand, adds dirty_step to the dirty state
// up to kDirtyCapBytes, and grows the working set by `growth` when its host
// has room. The fetch and the dirty cap are constants of the migration cost
// table (src/hyper/migration_model.h); the planning interval sets the steps.
struct UpkeepRates {
  UpkeepRates() = default;
  explicit UpkeepRates(SimTime planning_interval);

  uint64_t growth = 0;  // whole pages
  uint64_t dirty_step = 0;

  // One round's on-demand fetch: floor(unfetched x fraction), capped. Sizes
  // stay below 2^62, where the signed conversions give exactly the values
  // of the unsigned ones without their range fix-ups.
  static constexpr uint64_t Fetch(uint64_t unfetched) {
    const int64_t fetch = static_cast<int64_t>(
        static_cast<double>(static_cast<int64_t>(unfetched)) * kOnDemandFractionPerRound);
    return std::min(static_cast<uint64_t>(fetch), kOnDemandCapPerRound);
  }
  // The smallest unfetched size whose fetch is the whole cap (Fetch is
  // monotone, so every larger size fetches the cap too).
  static constexpr uint64_t kCapThreshold = 50 * kMiB;

  // Memo tables of the fetch walk below the threshold, where each fetch is
  // a fraction of what remains. Tables() builds them once per process and
  // every UpkeepRates on any thread reads them.
  static constexpr uint64_t kTailSizes = 4096;
  static constexpr uint64_t kJumpStride = 8;
  struct Tail {
    uint16_t rounds;
    uint16_t rest;
  };
  struct FetchTables {
    // For the kTailSizes smallest sizes, tail[x] is the rest of the walk
    // from x: how many rounds still fetch, and the size where the fetch
    // first rounds down to zero (after which the size never changes).
    std::vector<Tail> tail;
    // Jump rows, one per page-aligned size p * kPageSize below the
    // threshold: the walk from it fetches in length[p] rounds, and after
    // kJumpStride * j of them it stands at stops[p * stops_per_row + j - 1],
    // for j up to length[p] / kJumpStride and stops_per_row. A row keeps
    // the stops until the longest walk reaches the memoized tail.
    size_t stops_per_row = 0;
    std::vector<uint8_t> length;
    std::vector<uint32_t> stops;
  };
  static const FetchTables& Tables();

  // `vm`'s counters after `rounds` more rounds, in `grown` of which the
  // working set grew, with the fetches they took: exactly what applying the
  // rounds one at a time yields. The cap phase is closed form, a walk from
  // a page-aligned size jumps whole strides along its jump row, and the
  // memoized tail ends it; the few rounds left between are iterated.
  UpkeepCounters Advance(const VmSlot& vm, uint64_t rounds, uint64_t grown) const;
  // Rounds run so far that `vm`'s counters do not yet include.
  static uint64_t PendingRounds(const VmSlot& vm, uint32_t round) {
    return vm.UpkeepEligible() ? round - vm.upkeep_mark : 0;
  }
  // `vm`'s counters with every round up to `round` applied (read-only). The
  // conservation walk asks this of every VM every round, and most have
  // nothing pending.
  UpkeepCounters Settled(const VmSlot& vm, uint32_t round) const {
    uint64_t k = PendingRounds(vm, round);
    if (k == 0) {
      return {vm.ws_bytes, vm.ws_unfetched, vm.dirty_bytes, 0, 0};
    }
    return Advance(vm, k, k);
  }
  // The working-set part of Settled, in O(1).
  uint64_t SettledWsBytes(const VmSlot& vm, uint32_t round) const {
    return vm.ws_bytes + PendingRounds(vm, round) * growth;
  }
};
static_assert(UpkeepRates::Fetch(UpkeepRates::kCapThreshold) == kOnDemandCapPerRound);
static_assert(UpkeepRates::Fetch(UpkeepRates::kCapThreshold - 1) < kOnDemandCapPerRound);

}  // namespace oasis

#endif  // OASIS_SRC_CLUSTER_CLUSTER_TYPES_H_
