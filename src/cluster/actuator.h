// The actuator: all cluster *mechanism*, owned by ClusterManager (see
// DESIGN.md, "Control-plane layering").
//
// Strategies decide; the actuator executes. It is the only layer allowed to
// mutate ClusterState: migrations and their serialization on per-host
// channels, host wake/sleep (including fault-injected WoL loss and resume
// hangs), memory-server refresh, activation servicing, fault recovery and
// rollback, and energy accrual. Verbs take effect immediately at the
// simulated instant they are called, so a strategy that interleaves reads
// and verbs observes its own earlier actions through the live ClusterView.

#ifndef OASIS_SRC_CLUSTER_ACTUATOR_H_
#define OASIS_SRC_CLUSTER_ACTUATOR_H_

#include <span>
#include <vector>

#include "src/cluster/cluster_types.h"
#include "src/cluster/host.h"
#include "src/cluster/metrics.h"
#include "src/cluster/strategy.h"
#include "src/cluster/view.h"
#include "src/common/rng.h"
#include "src/mem/working_set.h"
#include "src/sim/simulator.h"

namespace oasis {

class Actuator {
 public:
  // All references must outlive the actuator; ClusterManager owns every one
  // of them and constructs the actuator last.
  Actuator(const ClusterConfig& config, Simulator& sim, Rng& rng,
           WorkingSetSampler& ws_sampler, FaultInjector& fault, ClusterState& state,
           ClusterMetrics& metrics);

  // --- strategy-facing verbs ----------------------------------------------
  // One §3.2 FulltoPartial swap group: wakes `home_id`, live-migrates each
  // idle full VM in `group` back home, re-consolidates it as a partial onto
  // its previous consolidation host (when the freshly sampled working set
  // fits), and schedules the home's sleep once its channel drains.
  void FullToPartialSwapGroup(SimTime now, HostId home_id, std::span<const VmId> group);
  // Executes a vacate plan: wakes destinations, moves each VM full or
  // partial per its placement, and schedules each emptied home's sleep.
  void CommitVacatePlan(SimTime now, const VacatePlan& plan);
  // Moves one partial VM from its current consolidation host to `dest_id`
  // (only the descriptor travels; the memory image stays on the home's
  // memory server).
  void DrainMove(SimTime now, VmId vm_id, HostId dest_id);
  // Starts waking `host_id` now so it is powered before forecast demand
  // arrives (PredictiveStrategy's pre-wake). Acts only on sleeping hosts and
  // returns whether a wake was started; a pre-woken host that goes unused is
  // re-slept by the manager's normal end-of-interval sweep, so a wrong
  // forecast costs at most one interval of idle draw.
  bool PrewakeHost(SimTime now, HostId host_id);

  // --- manager entry points -----------------------------------------------
  // Services an idle->active edge: aborts or rides out in-flight moves,
  // converts in place, tries a new home (NewHome policy), or wakes the home
  // and returns the whole group.
  void HandleActivation(SimTime now, VmId vm_id, SimTime activation_time);
  void AdjustActiveCount(SimTime now, HostId host, int delta);
  // One round of per-partial-VM upkeep: on-demand fetch traffic, dirty-state
  // growth, and working-set growth (which can exhaust a consolidation host
  // and force a return). Applied lazily (DESIGN.md, "Lazy upkeep"): a host
  // whose eligible residents all grow reserves their growth in one step;
  // only a host that runs out of room walks its residents in ascending id.
  void PartialVmUpkeep(SimTime now);
  // Brings every VM's counters up to date; the manager calls it once the
  // run's last event has fired, before anything reads the metrics.
  void SettleAllUpkeep();
  // Sweeps mechanism-owned sleep opportunities after planning.
  void SleepIdleConsolidationHosts(SimTime now);
  void MaybeSleepHomeHost(SimTime now, HostId host_id);
  // Dispatches one FaultPlan event at its scheduled time.
  void ApplyScheduledFault(SimTime now, const ScheduledFault& event);
  void AccrueEnergy(SimTime now);

 private:
  // Steps a day round by round against the eager upkeep walk kept as a
  // reference in tests/upkeep_test.cpp.
  friend struct UpkeepTestPeer;

  // --- transition handling ------------------------------------------------
  bool TryConvertInPlace(SimTime now, VmSlot& vm, SimTime activation_time);
  bool TryNewHome(SimTime now, VmSlot& vm, SimTime activation_time);
  // Returns when the last migration of the group completes (>= now even when
  // there was nothing to move), so fault recovery can bound its spans.
  SimTime ReturnHomeGroup(SimTime now, HostId home_id, VmId requester,
                          SimTime activation_time);

  // --- fault handling -----------------------------------------------------
  void CrashHost(SimTime now, HostId id);
  void FailMemoryServer(SimTime now, HostId home_id);
  void InjectMigrationAbort(SimTime now, int64_t target);
  // Rolls `vm`'s in-flight migration back to its pre-move state and returns
  // true, or returns false when its op cannot roll back (conversions,
  // reintegrations, a full return whose source re-used the space). With
  // `check_only` it changes nothing and only answers whether it could.
  bool RollbackMigration(SimTime now, VmSlot& vm, bool check_only = false);

  // --- helpers ------------------------------------------------------------
  ClusterHost& HostOf(HostId id) { return *state_.hosts[id]; }
  VmSlot& Slot(VmId id) { return state_.vms[id]; }
  // The funnel for the maintained aggregates in ClusterState and on the
  // hosts. Apart from activity flips (AdjustActiveCount) and PartialVmUpkeep's
  // growth reservation, nothing touches a resident set, a reservation, an
  // active count, vm.location, vm.residency, the partial byte counters or
  // vm.migration_in_flight except Relocate and SetInFlight.
  //
  // Relocate makes `vm` resident on `dest` (possibly where it already is) in
  // `residency`, applying the rule the invariant walk re-derives: a
  // consolidation host reserves each partial resident's settled working set
  // and each other resident's full footprint, releasing before it reserves;
  // a home's reservation for its own VMs never moves; an active VM's slot
  // and its in-flight, partial and upkeep counts travel with it. Leaving
  // kPartial zeroes the partial byte counters; entering it starts a fresh
  // working set of `ws` bytes, all unfetched. A VM that becomes
  // upkeep-eligible starts at upkeep_mark = upkeep_round; one that moves or
  // stops being eligible must have been settled first, which is asserted.
  void Relocate(SimTime now, VmSlot& vm, HostId dest, VmResidency residency, uint64_t ws = 0);
  void SetResidency(VmSlot& vm, VmResidency next);
  void SetInFlight(VmSlot& vm, bool in_flight);
  // Follows `vm` across a residency or in-flight change: adjusts
  // upkeep_residents and the mark when its eligibility flipped.
  void NoteUpkeepEligibility(VmSlot& vm, bool was_eligible);
  // Applies every upkeep round `vm` has pending (none unless eligible).
  void SettleUpkeep(VmSlot& vm);
  // Applies `rounds` rounds, `grown` of them with working-set growth, and
  // books their on-demand fetches.
  void AdvanceUpkeep(VmSlot& vm, uint64_t rounds, uint64_t grown);
  // Sends the WoL and returns the time the host will be executing VMs. With
  // fault injection the wake can lose WoL packets or hang in resume, pushing
  // that time out; callers must use the returned value rather than asking
  // the host directly.
  StatusOr<SimTime> WakeHost(SimTime now, HostId id);
  void RefreshMemoryServer(SimTime now, HostId home_id);
  // Marks `vm` in flight for [start, done) and schedules completion.
  void ScheduleMigration(VmSlot& vm, SimTime start, SimTime done, VmSlot::PendingOp op,
                         HostId source);
  void FinishMigration(SimTime now, VmId vm_id, uint32_t epoch);
  // Adds (delta +1) or removes (-1) `vm`'s contribution to `host`'s
  // resident counts.
  void CountResident(HostId host, const VmSlot& vm, int delta);
  // Books one full (pre-copy live) migration of `vm` to `dest` over
  // [start, end): its traffic, its count and its trace span.
  void BookFullMigration(SimTime start, SimTime end, const VmSlot& vm, HostId dest);
  // Books one partial migration of `vm` to `dest`: its descriptor push and
  // memory upload traffic, its count, and the push's trace span on `dest`'s
  // track (the upload's on the home's).
  void RecordPartialMigrationTraffic(SimTime now, VmSlot& vm, HostId dest);

  const ClusterConfig& config_;
  Simulator& sim_;
  Rng& rng_;
  WorkingSetSampler& ws_sampler_;
  FaultInjector& fault_;
  ClusterState& state_;
  ClusterMetrics& metrics_;
};

}  // namespace oasis

#endif  // OASIS_SRC_CLUSTER_ACTUATOR_H_
