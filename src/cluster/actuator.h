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

#include <array>
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
namespace obs {
class Counter;
class Histogram;
class MetricsRegistry;
class Tracer;
}  // namespace obs

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
  // Also the kSleepCheck event, scheduled for when a home's channel drains.
  void MaybeSleepHomeHost(SimTime now, HostId host_id);
  // Dispatches one FaultPlan event at its scheduled time.
  void ApplyScheduledFault(SimTime now, const ScheduledFault& event);
  // The kWolRetry event: the fault-delayed WoL that sticks goes out to `id`.
  void ResendWake(HostId id);
  // The kResumeDone and kSuspendDone events: land host `id`'s S3 transition
  // scheduled at transition epoch `epoch` and, unless it went stale,
  // refresh the host's memory server (a no-op on a consolidation host, and
  // on a powered one, whose memory server is already off).
  void FinishResume(HostId id, uint64_t epoch);
  void FinishSuspend(HostId id, uint64_t epoch);
  // The kMigrationDone event, filed at a completion's own key because its
  // VM's user is waiting on it: lands the migration at op epoch `epoch`
  // (unless aborted or superseded since) and services the activation.
  void FinishMigration(VmId vm_id, uint32_t epoch);
  // Retires every pending completion keyed before the simulator's current
  // key (DESIGN.md, "Migration completions"): each live one clears its VM's
  // in-flight state. Every event that reads in-flight state starts with
  // this batch: the manager's planning round, ApplyScheduledFault and a
  // keyed completion; the manager runs it once more after the day's last
  // event.
  void RetireCompletions();
  // Completions retired by RetireCompletions so far, stale ones included.
  // Each used to be an event of its own, so the manager counts each as one
  // dispatched event.
  uint64_t completions_retired() const { return completions_retired_; }
  void AccrueEnergy(SimTime now);
  // The run's collectors (null = off). Collectors never change mid-run, so
  // the manager resolves them on entry to each step and every per-migration
  // site tests these pointers. The instruments cached from the last registry
  // are dropped: this one may be another, even at the same address.
  void SetCollectors(obs::Tracer* tracer, obs::MetricsRegistry* registry) {
    tracer_ = tracer;
    registry_ = registry;
    instruments_ = {};
  }
  obs::Tracer* tracer() const { return tracer_; }
  obs::MetricsRegistry* registry() const { return registry_; }

 private:
  // Steps a day round by round against the eager upkeep walk kept as a
  // reference in tests/upkeep_test.cpp.
  friend struct UpkeepTestPeer;
  // Moves groups against one-VM moves in tests/relocate_group_test.cpp.
  friend struct RelocateGroupTestPeer;

  // --- transition handling ------------------------------------------------
  bool TryConvertInPlace(SimTime now, VmSlot& vm, SimTime activation_time);
  bool TryNewHome(SimTime now, VmSlot& vm, SimTime activation_time);
  // Returns when the last migration of the group completes (>= now even when
  // there was nothing to move), so fault recovery can bound its spans.
  SimTime ReturnHomeGroup(SimTime now, HostId home_id, VmId requester, SimTime activation_time);

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
  ClusterHost& HostOf(HostId id) { return state_.hosts[id]; }
  VmSlot& Slot(VmId id) { return state_.vms[id]; }

  // One VM's step through the funnel: it becomes resident on `dest`
  // (possibly where it already is) in `residency`, entering kPartial with a
  // fresh working set of `ws` bytes, all unfetched. Unless `op` is kNone,
  // the migration that carries it runs over [start, done) from `source`
  // (the VM's migration_source) and its completion is filed.
  struct Move {
    VmId vm;
    HostId dest;
    VmResidency residency;
    uint64_t ws = 0;
    VmSlot::PendingOp op = VmSlot::PendingOp::kNone;
    SimTime start = SimTime::Zero();
    SimTime done = SimTime::Zero();
    HostId source = kNoHost;
  };
  // The funnel for the maintained aggregates in ClusterState and on the
  // hosts. Apart from activity flips (AdjustActiveCount) and PartialVmUpkeep's
  // growth reservation, nothing touches a resident set, a reservation, an
  // active count, vm.location, vm.residency, the partial byte counters or
  // vm.migration_in_flight except RelocateGroup and SetInFlight.
  //
  // RelocateGroup applies `moves` in order (a VM may take several) under the
  // rule the invariant walk re-derives: a consolidation host reserves each
  // partial resident's settled working set and each other resident's full
  // footprint; a home's reservation for its own VMs never moves; an active
  // VM's slot and its in-flight, partial and upkeep counts travel with it.
  // Leaving kPartial zeroes the partial byte counters. A VM that becomes
  // upkeep-eligible starts at upkeep_mark = upkeep_round; one that moves or
  // stops being eligible must have been settled first, which is asserted.
  //
  // Per VM it writes the slot, flips the resident bits (each host's first
  // change at the instant closes its meter segment) and files the completion,
  // whose simulator key is reserved in move order. Per host it applies the
  // sums once: reservation, active count, and the resident, homed and
  // in-flight counts (DESIGN.md, "Per-home rounds"). Callers price each
  // move first (settle, channel times, traffic) and reserve no other key
  // between their moves: a wake that may file an event goes before the group.
  void RelocateGroup(SimTime now, std::span<const Move> moves);
  // The one-VM case.
  void Relocate(SimTime now, const Move& move) { RelocateGroup(now, {&move, 1}); }
  // Sets `vm`'s in-flight flag and follows it in inflight_residents, and in
  // upkeep_residents and the mark when its upkeep eligibility flipped.
  void SetInFlight(VmSlot& vm, bool in_flight);
  // Applies every upkeep round `vm` has pending (none unless eligible),
  // plus `extra` rounds without growth; books its on-demand fetches and
  // marks it settled through upkeep_round + extra. Each VM settles where it
  // is needed: before it activates, moves or is read at the end of the day.
  void SettleUpkeep(VmSlot& vm, uint32_t extra = 0);
  // Sends the WoL and returns the time the host will be executing VMs. With
  // fault injection the wake can lose WoL packets or hang in resume, pushing
  // that time out; callers must use the returned value rather than asking
  // the host directly.
  StatusOr<SimTime> WakeHost(SimTime now, HostId id);
  void RefreshMemoryServer(SimTime now, HostId home_id);
  // Records the migration over [start, done) on the slot and lists its
  // completion at the key (done, a freshly reserved sequence number), built
  // in place; the in-flight flag and counts are the caller's.
  void FileCompletion(VmSlot& vm, SimTime start, SimTime done, VmSlot::PendingOp op,
                      HostId source);
  // Files `c` as a kMigrationDone event at its own key: its VM's user is
  // waiting on it.
  void QueueKeyedCompletion(const PendingCompletion& c);

  // A group's migrations, counted per VM and booked once (Book): traffic
  // and the migration counters. Observability stays per VM: TraceMigration
  // and the Tally* helpers emit their spans and registry counters when the
  // collectors are on.
  struct Tally {
    uint64_t full_migrations = 0;
    uint64_t descriptor_pushes = 0;
    uint64_t uploads = 0;
    uint64_t upload_bytes = 0;
  };
  void Book(const Tally& tally);
  // The kinds of migration leg, each with its own span name and
  // cluster.migrations.<name> counter (TraceMigration names them).
  enum class Leg : uint8_t { kFull, kPartial, kReintegration, kConvertInPlace, kCrashRestart };
  static constexpr size_t kNumLegs = 5;
  // One migration leg as a span on the destination host's track, plus the
  // per-kind counter.
  void TraceMigration(Leg leg, SimTime start, SimTime end, VmId vm, HostId dest, uint64_t bytes);
  // One full (pre-copy live) migration of `vm` to `dest` over [start, end).
  void TallyFullMigration(Tally& tally, SimTime start, SimTime end, VmId vm, HostId dest);
  // One partial migration's descriptor push to `dest`: its span on `dest`'s
  // track and the cluster.descriptor_pushes counter. Drains push only this.
  void TallyDescriptorPush(Tally& tally, SimTime now, VmId vm, HostId dest);
  // One partial migration of `vm`, homed at `home`, to `dest`: its
  // descriptor push, and its memory upload (the whole image the first time,
  // a delta later) with its span on the home's track.
  void TallyPartialMigration(Tally& tally, SimTime now, VmId vm, HostId home, HostId dest);

  const ClusterConfig& config_;
  Simulator& sim_;
  Rng& rng_;
  WorkingSetSampler& ws_sampler_;
  FaultInjector& fault_;
  ClusterState& state_;
  ClusterMetrics& metrics_;
  obs::Tracer* tracer_ = nullptr;
  obs::MetricsRegistry* registry_ = nullptr;
  // registry_'s per-migration instruments, each looked up on its first use
  // (one that never fires stays out of the export) and cached until
  // SetCollectors.
  struct Instruments {
    std::array<obs::Counter*, kNumLegs> migrations{};
    obs::Histogram* migration_s = nullptr;
    obs::Counter* descriptor_pushes = nullptr;
  };
  Instruments instruments_;
  uint64_t completions_retired_ = 0;

  // RelocateGroup's per-host sums, indexed by host id and zero between
  // groups, and the hosts the current group touched (`host` set).
  struct HostDelta {
    ClusterHost* host = nullptr;
    int inflight = 0;
    int partial = 0;
    int upkeep = 0;
    int active = 0;
    int homed_partial = 0;
    int homed_fac = 0;
    uint64_t release = 0;
    uint64_t reserve = 0;
    bool consolidation = false;
  };
  std::vector<HostDelta> host_delta_;
  std::vector<HostId> touched_;
  // Scratch for the group verbs' moves.
  std::vector<Move> moves_;
};

}  // namespace oasis

#endif  // OASIS_SRC_CLUSTER_ACTUATOR_H_
