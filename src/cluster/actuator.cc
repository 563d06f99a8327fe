#include "src/cluster/actuator.h"

#include <algorithm>
#include <cassert>
#include <set>
#include <string>

#include "src/common/log.h"
#include "src/hyper/migration_model.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace oasis {
namespace {

// One migration leg as a span on the destination host's track, plus the
// per-kind counter. `name` must be a string literal.
void TraceMigration(const char* name, SimTime start, SimTime end, VmId vm, HostId dest,
                    uint64_t bytes) {
  if (obs::Tracer* t = obs::Tracer::IfEnabled()) {
    t->Complete("migration", name, start, end,
                obs::TraceArgs{static_cast<int64_t>(dest), static_cast<int64_t>(vm),
                               static_cast<int64_t>(bytes)});
  }
  if (obs::MetricsRegistry* m = obs::MetricsRegistry::IfEnabled()) {
    m->counter(std::string("cluster.migrations.") + name)->Increment();
    m->histogram("cluster.migration_s")->Record((end - start).seconds());
  }
}

}  // namespace

Actuator::Actuator(const ClusterConfig& config, Simulator& sim, Rng& rng,
                   WorkingSetSampler& ws_sampler, FaultInjector& fault, ClusterState& state,
                   ClusterMetrics& metrics)
    : config_(config),
      sim_(sim),
      rng_(rng),
      ws_sampler_(ws_sampler),
      fault_(fault),
      state_(state),
      metrics_(metrics) {}

void Actuator::CountResident(HostId host, const VmSlot& vm, int delta) {
  if (vm.migration_in_flight) {
    state_.inflight_residents[host] += delta;
  }
  if (vm.residency == VmResidency::kPartial) {
    state_.partial_residents[host] += delta;
  }
  if (vm.UpkeepEligible()) {
    assert(vm.upkeep_mark == state_.upkeep_round && "an unsettled VM moved");
    state_.upkeep_residents[host] += delta;
  }
}

void Actuator::Relocate(SimTime now, VmSlot& vm, HostId dest, VmResidency residency,
                        uint64_t ws) {
  // What a consolidation host reserves for a resident; a home reserves its
  // own VMs' full footprints for the whole day.
  auto footprint = [&vm] {
    return vm.residency == VmResidency::kPartial ? vm.ws_bytes : vm.full_bytes;
  };
  const HostId source = vm.location;
  if (HostOf(source).IsConsolidationHost()) {
    HostOf(source).Release(footprint());
  }
  if (dest != source) {
    HostOf(source).RemoveVm(now, vm.id);
    CountResident(source, vm, -1);
    HostOf(dest).AddVm(now, vm.id);
    CountResident(dest, vm, +1);
    vm.location = dest;
    if (vm.activity == VmActivity::kActive) {
      AdjustActiveCount(now, source, -1);
      AdjustActiveCount(now, dest, +1);
    }
  }
  if (residency != VmResidency::kPartial) {
    vm.ws_bytes = vm.ws_unfetched = vm.dirty_bytes = 0;
  } else if (vm.residency != VmResidency::kPartial) {
    vm.ws_bytes = vm.ws_unfetched = ws;  // nothing fetched or dirtied yet
  }
  SetResidency(vm, residency);
  if (HostOf(dest).IsConsolidationHost()) {
    HostOf(dest).Reserve(footprint());
  }
}

void Actuator::SetResidency(VmSlot& vm, VmResidency next) {
  if (vm.residency == next) {
    return;
  }
  bool was_eligible = vm.UpkeepEligible();
  // A VM's home never changes, so the per-home counts follow the residency
  // alone; the per-host one follows it at the host the VM is resident on,
  // and the per-VM full-at-consolidation bit follows the VM itself.
  auto count = [this, &vm](int delta) {
    if (vm.residency == VmResidency::kPartial) {
      state_.partials_homed[vm.home] += delta;
      state_.partial_residents[vm.location] += delta;
    } else if (vm.residency == VmResidency::kFullAtConsolidation) {
      state_.fac_homed[vm.home] += delta;
      uint64_t bit = uint64_t{1} << (vm.id % 64);
      uint64_t& word = state_.fac_vm_bits[vm.id / 64];
      word = delta > 0 ? word | bit : word & ~bit;
    }
  };
  count(-1);
  vm.residency = next;
  count(+1);
  NoteUpkeepEligibility(vm, was_eligible);
}

void Actuator::SetInFlight(VmSlot& vm, bool in_flight) {
  if (vm.migration_in_flight == in_flight) {
    return;
  }
  bool was_eligible = vm.UpkeepEligible();
  vm.migration_in_flight = in_flight;
  state_.inflight_residents[vm.location] += in_flight ? 1 : -1;
  NoteUpkeepEligibility(vm, was_eligible);
}

void Actuator::NoteUpkeepEligibility(VmSlot& vm, bool was_eligible) {
  if (vm.UpkeepEligible() == was_eligible) {
    return;
  }
  if (was_eligible) {
    assert(vm.upkeep_mark == state_.upkeep_round && "an unsettled VM left upkeep");
    --state_.upkeep_residents[vm.location];
  } else {
    vm.upkeep_mark = state_.upkeep_round;
    ++state_.upkeep_residents[vm.location];
  }
}

void Actuator::SettleUpkeep(VmSlot& vm) {
  uint64_t pending = UpkeepRates::PendingRounds(vm, state_.upkeep_round);
  if (pending > 0) {
    AdvanceUpkeep(vm, pending, pending);
    vm.upkeep_mark = state_.upkeep_round;
  }
}

void Actuator::AdvanceUpkeep(VmSlot& vm, uint64_t rounds, uint64_t grown) {
  UpkeepCounters c = state_.upkeep.Advance(vm, rounds, grown);
  vm.ws_bytes = c.ws_bytes;
  vm.ws_unfetched = c.ws_unfetched;
  vm.dirty_bytes = c.dirty_bytes;
  if (c.fetches > 0) {
    metrics_.traffic.Add(TrafficCategory::kOnDemandPages, c.fetched_bytes, c.fetches);
  }
}

void Actuator::SettleAllUpkeep() {
  for (VmSlot& vm : state_.vms) {
    SettleUpkeep(vm);
  }
}

void Actuator::HandleActivation(SimTime now, VmId vm_id, SimTime activation_time) {
  VmSlot& vm = Slot(vm_id);
  SettleUpkeep(vm);
  if (vm.migration_in_flight && now < vm.migration_start && RollbackMigration(now, vm)) {
    // The queued move had not started and was cancelled; fall through with
    // the VM's restored state (full at home for vacate/swap aborts, still
    // partial for drains).
  } else if (vm.migration_in_flight) {
    if (vm.pending_op == VmSlot::PendingOp::kReturnMove) {
      // The VM is already being reintegrated as part of a group return; the
      // agent promotes it to the front of the queue, so the user waits only
      // one reintegration (§5.5), not the whole storm.
      metrics_.transition_delay_s.Add((now - activation_time + kReintegrationTime).seconds());
      return;
    }
    vm.activation_pending = true;
    return;
  }
  switch (vm.residency) {
    case VmResidency::kFullAtHome:
    case VmResidency::kFullAtConsolidation:
      // The VM already holds all its resources: zero perceived delay.
      metrics_.transition_delay_s.Add((now - activation_time).seconds());
      return;
    case VmResidency::kPartial:
      break;
  }
  if (config_.policy != ConsolidationPolicy::kOnlyPartial &&
      TryConvertInPlace(now, vm, activation_time)) {
    return;
  }
  if (config_.policy == ConsolidationPolicy::kNewHome &&
      TryNewHome(now, vm, activation_time)) {
    return;
  }
  ++metrics_.capacity_exhaustions;
  ReturnHomeGroup(now, vm.home, vm.id, activation_time);
}

bool Actuator::TryConvertInPlace(SimTime now, VmSlot& vm, SimTime activation_time) {
  ClusterHost& host = HostOf(vm.location);
  if (!host.CanFit(vm.full_bytes - vm.ws_bytes)) {
    return false;
  }
  // CPU bound (§3 assumption 1): the activation was already counted here.
  if (host.active_vms() > config_.MaxActiveVmsPerHost()) {
    return false;
  }
  // Pre-fetch the remaining footprint from the memory server (§4.4.4: a
  // partial VM that turns active converts to a full VM).
  uint64_t fetched = vm.ws_bytes - vm.ws_unfetched;
  metrics_.traffic.Add(TrafficCategory::kOnDemandPages, vm.full_bytes - fetched);
  Relocate(now, vm, vm.location, VmResidency::kFullAtConsolidation);
  // The VM's working set is already resident, so it responds as soon as its
  // vCPUs are rescheduled with full memory commitment; the bulk of the
  // footprint streams in from the memory server in the background.
  SimTime done = now + kReintegrationTime;
  TraceMigration("convert_in_place", now, done, vm.id, vm.location, vm.full_bytes - fetched);
  ScheduleMigration(vm, now, done, VmSlot::PendingOp::kOther, vm.location);
  metrics_.transition_delay_s.Add((done - activation_time).seconds());
  RefreshMemoryServer(now, vm.home);
  return true;
}

bool Actuator::TryNewHome(SimTime now, VmSlot& vm, SimTime activation_time) {
  // Any powered consolidation host with room for the full footprint.
  std::vector<HostId> candidates;
  for (const auto& candidate : state_.hosts) {
    if (!candidate->IsConsolidationHost()) {
      continue;
    }
    HostId id = candidate->id();
    if (id != vm.location && candidate->IsPowered() && candidate->CanFit(vm.full_bytes) &&
        candidate->active_vms() < config_.MaxActiveVmsPerHost()) {
      candidates.push_back(id);
    }
  }
  if (candidates.empty()) {
    return false;
  }
  HostId target_id = candidates[rng_.NextBelow(candidates.size())];
  HostId old_location = vm.location;
  Relocate(now, vm, target_id, VmResidency::kFullAtConsolidation);
  ++metrics_.new_home_moves;
  SimTime done = now + kReintegrationTime;
  BookFullMigration(now, done, vm, target_id);
  ScheduleMigration(vm, now, done, VmSlot::PendingOp::kOther, old_location);
  metrics_.transition_delay_s.Add((done - activation_time).seconds());
  RefreshMemoryServer(now, vm.home);

  if (HostOf(old_location).IsConsolidationHost() && !HostOf(old_location).HasVms()) {
    SleepIdleConsolidationHosts(now);
  }
  return true;
}

SimTime Actuator::ReturnHomeGroup(SimTime now, HostId home_id, VmId requester,
                                  SimTime activation_time) {
  ClusterHost& home = HostOf(home_id);
  StatusOr<SimTime> woken = WakeHost(now, home_id);
  SimTime t0 = woken.ok() ? *woken : home.EarliestPoweredTime(now);
  if (!woken.ok()) {
    OASIS_CLOG(kError, "cluster") << "waking home " << home_id
                                  << " failed: " << woken.status().ToString();
  }
  SimTime last_done = t0;

  // The requester reintegrates first; its delay is what the user feels.
  // vms_by_home lists the home's VMs in ascending id order — the same order
  // the original full-table walk visited them.
  std::vector<VmId> partials;
  std::vector<VmId> idle_fulls;
  for (VmId vid : state_.vms_by_home[home_id]) {
    const VmSlot& vm = state_.vms[vid];
    if (vm.migration_in_flight) {
      continue;
    }
    if (vm.residency == VmResidency::kPartial) {
      if (vm.id == requester) {
        partials.insert(partials.begin(), vm.id);
      } else {
        partials.push_back(vm.id);
      }
    } else if (vm.residency == VmResidency::kFullAtConsolidation &&
               vm.activity == VmActivity::kIdle) {
      // §3.2: "Migrating back all full VMs that were originally homed on the
      // awake host creates additional space on the consolidation hosts."
      idle_fulls.push_back(vm.id);
    }
  }
  for (VmId id : partials) {
    VmSlot& vm = Slot(id);
    SettleUpkeep(vm);
    uint64_t dirty = vm.dirty_bytes;
    Relocate(now, vm, home_id, VmResidency::kFullAtHome);
    metrics_.traffic.Add(TrafficCategory::kReintegration, dirty);
    ++metrics_.reintegrations;
    SimTime done = home.EnqueueInboundTransfer(t0, kReintegrationTransfer) + kReintegrationFixed;
    TraceMigration("reintegration", t0, done, id, home_id, dirty);
    ScheduleMigration(vm, t0, done,
                      id == requester ? VmSlot::PendingOp::kOther
                                      : VmSlot::PendingOp::kReturnMove,
                      home_id);
    if (id == requester) {
      metrics_.transition_delay_s.Add((done - activation_time).seconds());
    }
    last_done = std::max(last_done, done);
  }
  for (VmId id : idle_fulls) {
    VmSlot& vm = Slot(id);
    HostId source_id = vm.location;
    Relocate(now, vm, home_id, VmResidency::kFullAtHome);
    SimTime done = HostOf(source_id).EnqueueOutboundMigration(t0, kFullMigrationTime);
    BookFullMigration(done - kFullMigrationTime, done, vm, home_id);
    ScheduleMigration(vm, done - kFullMigrationTime, done, VmSlot::PendingOp::kFullReturnMove,
                      source_id);
    last_done = std::max(last_done, done);
  }
  RefreshMemoryServer(now, home_id);
  return last_done;
}

void Actuator::PartialVmUpkeep(SimTime now) {
  const uint64_t growth = state_.upkeep.growth;
  std::vector<HostId> exhausted_homes;
  // Growth on one host never affects another, and every eligible VM asks
  // for the same growth, so the first AvailableBytes() / growth eligible
  // residents of a host (ascending id) grow and every later one exhausts
  // its home. The host reserves the growth in one step, and a VM that grew
  // picks up this round when it is next settled.
  for (size_t h = 0; h < state_.hosts.size(); ++h) {
    uint64_t residents = static_cast<uint64_t>(state_.upkeep_residents[h]);
    if (residents == 0 || growth == 0) {
      continue;
    }
    ClusterHost& host = *state_.hosts[h];
    uint64_t fits = host.AvailableBytes() / growth;
    host.Reserve(std::min(residents, fits) * growth);
    if (residents <= fits) {
      continue;
    }
    // An exhaustion round: each eligible resident past the first `fits`
    // takes this round without growth, now.
    uint64_t seen = 0;
    for (VmId id : host.vms()) {
      VmSlot& vm = Slot(id);
      if (!vm.UpkeepEligible() || seen++ < fits) {
        continue;
      }
      SettleUpkeep(vm);
      AdvanceUpkeep(vm, 1, 0);
      vm.upkeep_mark = state_.upkeep_round + 1;
      exhausted_homes.push_back(vm.home);
    }
  }
  ++state_.upkeep_round;
  std::sort(exhausted_homes.begin(), exhausted_homes.end());
  exhausted_homes.erase(std::unique(exhausted_homes.begin(), exhausted_homes.end()),
                        exhausted_homes.end());
  for (HostId home : exhausted_homes) {
    ++metrics_.capacity_exhaustions;
    ReturnHomeGroup(now, home, kNoVm, now);
  }
}

void Actuator::FullToPartialSwapGroup(SimTime now, HostId home_id,
                                      std::span<const VmId> group) {
  // Idle full VMs parked on consolidation hosts go home and come back as
  // partials, freeing most of their reservation (§3.2 FulltoPartial).
  ClusterHost& home = HostOf(home_id);
  StatusOr<SimTime> woken = WakeHost(now, home_id);
  SimTime t0 = woken.ok() ? *woken : home.EarliestPoweredTime(now);
  for (VmId id : group) {
    VmSlot& vm = Slot(id);
    HostId cons_id = vm.location;
    ClusterHost& cons = HostOf(cons_id);
    // Leg 1: live-migrate the full VM back home.
    SimTime done1 = cons.EnqueueOutboundMigration(t0, kFullMigrationTime);
    BookFullMigration(done1 - kFullMigrationTime, done1, vm, home_id);
    Relocate(now, vm, home_id, VmResidency::kFullAtHome);
    // Leg 2: partial-migrate back to the same consolidation host.
    uint64_t ws = ws_sampler_.Sample();
    if (cons.CanFit(ws)) {
      Relocate(now, vm, cons_id, VmResidency::kPartial, ws);
      RecordPartialMigrationTraffic(now, vm, cons_id);
      ++metrics_.full_to_partial_swaps;
      SimTime done2 = home.EnqueueOutboundMigration(done1, kPartialMigrationTime);
      TraceMigration("partial_migration", done2 - kPartialMigrationTime, done2, id, cons_id,
                     ws);
      ScheduleMigration(vm, done2 - kPartialMigrationTime, done2,
                        VmSlot::PendingOp::kSwapReturn, home_id);
    } else {
      // No room for even the partial: the VM stays home.
      ScheduleMigration(vm, t0, done1, VmSlot::PendingOp::kOther, cons_id);
    }
  }
  SimTime all_done = home.outbound_busy_until();
  HostId hid = home_id;
  sim_.ScheduleAt(std::max(now, all_done),
                  [this, hid]() { MaybeSleepHomeHost(sim_.now(), hid); });
}

void Actuator::CommitVacatePlan(SimTime now, const VacatePlan& plan) {
  for (size_t i = 0; i < plan.hosts_to_vacate.size(); ++i) {
    HostId source_id = plan.hosts_to_vacate[i];
    ClusterHost& source = HostOf(source_id);
    for (const VacatePlacement& placement : plan.placements[i]) {
      VmId vm_id = placement.vm;
      HostId dest_id = placement.dest;
      VmSlot& vm = Slot(vm_id);
      ClusterHost& dest = HostOf(dest_id);
      StatusOr<SimTime> woken = WakeHost(now, dest_id);
      SimTime dest_ready = woken.ok() ? *woken : dest.EarliestPoweredTime(now);
      if (!placement.as_partial) {
        // Active (or not-yet-trusted idle) VMs move in full via live
        // migration, so they keep their resources and performance.
        SimTime done = source.EnqueueOutboundMigration(dest_ready, kFullMigrationTime);
        Relocate(now, vm, dest_id, VmResidency::kFullAtConsolidation);
        BookFullMigration(now, done, vm, dest_id);
        ScheduleMigration(vm, now, done, VmSlot::PendingOp::kOther, source_id);
      } else {
        SimTime done = source.EnqueueOutboundMigration(dest_ready, kPartialMigrationTime);
        RecordPartialMigrationTraffic(now, vm, dest_id);
        Relocate(now, vm, dest_id, VmResidency::kPartial, placement.bytes);
        TraceMigration("partial_migration", done - kPartialMigrationTime, done, vm_id, dest_id,
                       placement.bytes);
        ScheduleMigration(vm, done - kPartialMigrationTime, done,
                          VmSlot::PendingOp::kVacatePartial, source_id);
      }
    }
    SimTime all_done = std::max(now, source.outbound_busy_until());
    HostId hid = source_id;
    sim_.ScheduleAt(all_done, [this, hid]() { MaybeSleepHomeHost(sim_.now(), hid); });
  }
}

void Actuator::DrainMove(SimTime now, VmId vm_id, HostId dest_id) {
  VmSlot& vm = Slot(vm_id);
  SettleUpkeep(vm);
  HostId source_id = vm.location;
  Relocate(now, vm, dest_id, VmResidency::kPartial);
  metrics_.traffic.Add(TrafficCategory::kPartialDescriptor, kDescriptorBytes);
  ++metrics_.partial_migrations;
  SimTime done = HostOf(source_id).EnqueueOutboundMigration(now, kPartialMigrationTime);
  if (obs::Tracer* tr = obs::Tracer::IfEnabled()) {
    // Drains ship only the descriptor; the memory image stays on the
    // home's memory server.
    tr->Complete("migration", "descriptor_push", now, now,
                 obs::TraceArgs{static_cast<int64_t>(dest_id),
                                static_cast<int64_t>(vm_id),
                                static_cast<int64_t>(kDescriptorBytes)});
  }
  TraceMigration("partial_migration", done - kPartialMigrationTime, done, vm_id, dest_id,
                 vm.ws_bytes);
  ScheduleMigration(vm, done - kPartialMigrationTime, done, VmSlot::PendingOp::kDrainMove,
                    source_id);
}

bool Actuator::PrewakeHost(SimTime now, HostId host_id) {
  if (static_cast<size_t>(host_id) >= state_.hosts.size() ||
      !HostOf(host_id).IsAsleep()) {
    return false;
  }
  // The full fault-aware wake path (WoL losses, resume hangs) applies to a
  // speculative wake too; the strategy doesn't wait on the powered-at time.
  (void)WakeHost(now, host_id);
  return true;
}

void Actuator::SleepIdleConsolidationHosts(SimTime now) {
  for (const auto& host_ptr : state_.hosts) {
    if (!host_ptr->IsConsolidationHost()) {
      continue;
    }
    ClusterHost& host = *host_ptr;
    if (host.s3_capable() && host.IsPowered() && !host.HasVms() &&
        host.active_vms() == 0 && host.outbound_busy_until() <= now) {
      host.RequestSleep(sim_);
      ++metrics_.host_sleeps;
    }
  }
}

void Actuator::MaybeSleepHomeHost(SimTime now, HostId host_id) {
  ClusterHost& host = HostOf(host_id);
  if (!host.s3_capable() || !host.IsHomeHost() || !host.IsPowered() ||
      host.HasVms() || host.active_vms() != 0 || host.outbound_busy_until() > now) {
    return;
  }
  HostId id = host_id;
  host.RequestSleep(sim_, [this, id](SimTime at) { RefreshMemoryServer(at, id); });
  ++metrics_.host_sleeps;
}

void Actuator::AdjustActiveCount(SimTime now, HostId host, int delta) {
  ClusterHost& h = HostOf(host);
  h.SetActiveVms(now, h.active_vms() + delta);
}

StatusOr<SimTime> Actuator::WakeHost(SimTime now, HostId id) {
  if (static_cast<size_t>(id) >= state_.hosts.size()) {
    return Status::NotFound("no such host: " + std::to_string(id));
  }
  ClusterHost& host = HostOf(id);
  if (!host.IsPowered()) {
    ++metrics_.host_wakes;
  }
  // A fault-delayed WoL retry loop is already running for this host: join it
  // instead of sampling a fresh fault episode for the same wake.
  if (state_.pending_wake_powered_at[id] > now) {
    return state_.pending_wake_powered_at[id];
  }
  HostId hid = id;
  if (fault_.enabled() && host.IsAsleep()) {
    // Faults attach to the WoL actually sent: each lost packet costs one
    // retry timeout, and a wedged resume costs a watchdog power-cycle.
    SimTime t = now;
    int losses = fault_.SampleWolLosses(now, static_cast<int64_t>(id));
    if (losses > 0) {
      SimTime waited = config_.fault.wol_retry_timeout * static_cast<double>(losses);
      fault_.RecordRecovered(FaultClass::kWolLoss, t, t + waited,
                             obs::TraceArgs{static_cast<int64_t>(id), -1, losses});
      t = t + waited;
      if (losses >= config_.fault.max_wol_retries) {
        OASIS_CLOG(kWarning, "cluster")
            << "host " << id << " ignored " << losses
            << " WoL packets; escalating to the management processor";
        if (obs::MetricsRegistry* m = obs::MetricsRegistry::IfEnabled()) {
          m->counter("fault.wol_escalations")->Increment();
        }
      }
    }
    if (fault_.SampleResumeHang(now, static_cast<int64_t>(id))) {
      SimTime watchdog = config_.fault.resume_watchdog;
      fault_.RecordRecovered(FaultClass::kResumeHang, t, t + watchdog,
                             obs::TraceArgs{static_cast<int64_t>(id)});
      t = t + watchdog;
    }
    if (t > now) {
      // The WoL that sticks goes out at t; the host powers one resume later.
      SimTime powered_at = host.EarliestPoweredTime(t);
      state_.pending_wake_powered_at[id] = powered_at;
      sim_.ScheduleAt(t, [this, hid]() {
        HostOf(hid).RequestWake(sim_, [this, hid](SimTime at) {
          state_.pending_wake_powered_at[hid] = SimTime::Zero();
          RefreshMemoryServer(at, hid);
        });
      });
      return powered_at;
    }
  }
  host.RequestWake(sim_, [this, hid](SimTime at) { RefreshMemoryServer(at, hid); });
  return host.EarliestPoweredTime(now);
}

void Actuator::RefreshMemoryServer(SimTime now, HostId home_id) {
  if (HostOf(home_id).IsConsolidationHost()) {
    return;  // consolidation hosts' memory servers are never powered (§5.1)
  }
  ClusterHost& host = HostOf(home_id);
  // partials_homed is maintained by SetResidency (a VM's home never
  // changes), so the refresh on every host sleep is O(1).
  bool needed = host.IsAsleep() && state_.partials_homed[home_id] > 0;
  host.SetMemoryServerPowered(now, needed);
}

void Actuator::ScheduleMigration(VmSlot& vm, SimTime start, SimTime done,
                                 VmSlot::PendingOp op, HostId source) {
  SetInFlight(vm, true);
  vm.migration_start = start;
  vm.pending_op = op;
  vm.migration_source = source;
  uint32_t epoch = ++vm.op_epoch;
  VmId id = vm.id;
  sim_.ScheduleAt(done, [this, id, epoch]() { FinishMigration(sim_.now(), id, epoch); });
}

bool Actuator::RollbackMigration(SimTime now, VmSlot& vm, bool check_only) {
  HostId back_to = kNoHost;
  VmResidency residency = VmResidency::kFullAtHome;
  switch (vm.pending_op) {
    case VmSlot::PendingOp::kVacatePartial:
    case VmSlot::PendingOp::kSwapReturn:
      // The VM has not been suspended yet; it keeps running at home with its
      // full footprint. Undo the partial placement.
      back_to = vm.home;
      break;
    case VmSlot::PendingOp::kDrainMove:
      // The VM stays on the consolidation host it was being drained from.
      back_to = vm.migration_source;
      residency = VmResidency::kPartial;
      break;
    case VmSlot::PendingOp::kFullReturnMove:
      // The return-home live migration has not started: the VM simply stays
      // full on its consolidation host, already holding all its resources.
      if (!HostOf(vm.migration_source).CanFit(vm.full_bytes)) {
        return false;  // space was re-used meanwhile; ride the migration out
      }
      back_to = vm.migration_source;
      residency = VmResidency::kFullAtConsolidation;
      break;
    case VmSlot::PendingOp::kReturnMove:
    case VmSlot::PendingOp::kOther:
    case VmSlot::PendingOp::kNone:
      return false;
  }
  if (check_only) {
    return true;
  }
  Relocate(now, vm, back_to, residency);
  ++vm.op_epoch;  // invalidate the scheduled completion event
  SetInFlight(vm, false);
  vm.pending_op = VmSlot::PendingOp::kNone;
  vm.activation_pending = false;
  return true;
}

void Actuator::ApplyScheduledFault(SimTime now, const ScheduledFault& event) {
  switch (event.fault) {
    case FaultClass::kHostCrash: {
      HostId victim = kNoHost;
      if (event.target >= 0) {
        HostId id = static_cast<HostId>(event.target);
        if (static_cast<size_t>(id) < state_.hosts.size() &&
            HostOf(id).IsConsolidationHost() && HostOf(id).IsPowered()) {
          victim = id;
        }
      } else {
        // Deterministic pick: the powered consolidation host with the most
        // resident VMs (ties to the lowest id) — the most damaging crash.
        size_t best_vms = 0;
        for (const auto& host_ptr : state_.hosts) {
          if (!host_ptr->IsConsolidationHost() || !host_ptr->IsPowered()) {
            continue;
          }
          if (victim == kNoHost || host_ptr->vms().size() > best_vms) {
            victim = host_ptr->id();
            best_vms = host_ptr->vms().size();
          }
        }
      }
      if (victim == kNoHost) {
        fault_.RecordSkipped(FaultClass::kHostCrash, now, obs::TraceArgs{event.target});
        return;
      }
      CrashHost(now, victim);
      return;
    }
    case FaultClass::kMemoryServerFailure: {
      HostId victim = kNoHost;
      if (event.target >= 0) {
        HostId id = static_cast<HostId>(event.target);
        if (static_cast<size_t>(id) < state_.hosts.size() && HostOf(id).IsHomeHost() &&
            HostOf(id).memory_server_powered()) {
          victim = id;
        }
      } else {
        // Lowest-id home whose memory server is actually up (i.e. the home
        // sleeps and partial VMs depend on it).
        for (const auto& host_ptr : state_.hosts) {
          if (host_ptr->IsHomeHost() && host_ptr->memory_server_powered()) {
            victim = host_ptr->id();
            break;
          }
        }
      }
      if (victim == kNoHost) {
        fault_.RecordSkipped(FaultClass::kMemoryServerFailure, now,
                             obs::TraceArgs{event.target});
        return;
      }
      FailMemoryServer(now, victim);
      return;
    }
    case FaultClass::kMigrationAbort:
      InjectMigrationAbort(now, event.target);
      return;
    case FaultClass::kWolLoss:
    case FaultClass::kRpcDrop:
    case FaultClass::kRpcDelay:
    case FaultClass::kResumeHang:
      // Query-sampled (and retired) classes cannot be time-scheduled: there
      // is no pending operation at an arbitrary instant to attach them to.
      fault_.RecordSkipped(event.fault, now, obs::TraceArgs{event.target});
      return;
  }
}

void Actuator::CrashHost(SimTime now, HostId id) {
  ClusterHost& host = HostOf(id);
  // Pass 1: feasibility. A resident whose in-flight op cannot roll back
  // (in-place conversion, reintegration pull) makes the host briefly
  // unkillable — the crash is skipped rather than leaving a VM in a state
  // the simulation cannot account for.
  for (VmId vid : host.vms()) {
    VmSlot& vm = Slot(vid);
    if (vm.migration_in_flight && !RollbackMigration(now, vm, /*check_only=*/true)) {
      fault_.RecordSkipped(FaultClass::kHostCrash, now,
                           obs::TraceArgs{static_cast<int64_t>(id),
                                          static_cast<int64_t>(vid)});
      return;
    }
  }
  fault_.RecordInjected(FaultClass::kHostCrash, now,
                        obs::TraceArgs{static_cast<int64_t>(id), -1,
                                       static_cast<int64_t>(host.vms().size())});
  OASIS_CLOG(kWarning, "cluster") << "host " << id << " crashed with "
                                  << host.vms().size() << " resident VMs";
  // Pass 2: in-flight migrations into the crashed host lose their stream;
  // roll each back to its consistent pre-move state.
  std::vector<VmId> inflight;
  for (VmId vid : host.vms()) {
    if (state_.vms[vid].migration_in_flight) {
      inflight.push_back(vid);
    }
  }
  for (VmId vid : inflight) {
    bool rolled = RollbackMigration(now, Slot(vid));
    assert(rolled && "feasibility pass admitted an un-rollbackable op");
    (void)rolled;
  }
  SimTime recovered_by = now;
  // Pass 3: live-migration streams *sourced* at the crashed host (full
  // returns heading home) lose their source mid-stream; the destination
  // discards the partial copy and the VM restarts from its home disk image.
  for (VmSlot& vm : state_.vms) {
    if (!vm.migration_in_flight || vm.migration_source != id ||
        vm.pending_op != VmSlot::PendingOp::kFullReturnMove) {
      continue;
    }
    SimTime powered = HostOf(vm.home).EarliestPoweredTime(now);
    SimTime done = powered + config_.fault.vm_restart_latency;
    TraceMigration("crash_restart", now, done, vm.id, vm.home, vm.full_bytes);
    ScheduleMigration(vm, now, done, VmSlot::PendingOp::kOther, id);
    ++metrics_.crash_vm_restarts;
    recovered_by = std::max(recovered_by, done);
  }
  // Pass 4: recover residents. Full VMs restart at home from the disk image
  // (a home never releases the reservation for its own VM, so capacity is
  // guaranteed); partials lose their resident pages and reintegrate with
  // their whole home group below.
  std::vector<VmId> residents(host.vms().begin(), host.vms().end());
  std::set<HostId> partial_homes;
  for (VmId vid : residents) {
    VmSlot& vm = Slot(vid);
    if (vm.residency == VmResidency::kPartial) {
      partial_homes.insert(vm.home);
      continue;
    }
    StatusOr<SimTime> woken = WakeHost(now, vm.home);
    SimTime powered = woken.ok() ? *woken : HostOf(vm.home).EarliestPoweredTime(now);
    Relocate(now, vm, vm.home, VmResidency::kFullAtHome);
    SimTime done = powered + config_.fault.vm_restart_latency;
    TraceMigration("crash_restart", now, done, vid, vm.home, vm.full_bytes);
    ScheduleMigration(vm, now, done, VmSlot::PendingOp::kOther, id);
    if (vm.activity == VmActivity::kActive) {
      metrics_.transition_delay_s.Add((done - now).seconds());
    }
    ++metrics_.crash_vm_restarts;
    recovered_by = std::max(recovered_by, done);
  }
  for (HostId home_id : partial_homes) {
    recovered_by = std::max(recovered_by, ReturnHomeGroup(now, home_id, kNoVm, now));
  }
  assert(!host.HasVms() && "crash recovery left a VM behind");
  host.Crash(now);
  fault_.RecordRecovered(FaultClass::kHostCrash, now, recovered_by,
                         obs::TraceArgs{static_cast<int64_t>(id)});
}

void Actuator::FailMemoryServer(SimTime now, HostId home_id) {
  ClusterHost& home = HostOf(home_id);
  fault_.RecordInjected(FaultClass::kMemoryServerFailure, now,
                        obs::TraceArgs{static_cast<int64_t>(home_id), -1,
                                       state_.partials_homed[home_id]});
  OASIS_CLOG(kWarning, "cluster")
      << "memory server of home " << home_id
      << " failed; emergency-reintegrating its partial VMs";
  home.SetMemoryServerPowered(now, false);
  // Partials homed here that are mid-drain lose their backing store too;
  // roll them back so the group return below covers them.
  for (VmId vid : state_.vms_by_home[home_id]) {
    VmSlot& vm = state_.vms[vid];
    if (vm.migration_in_flight && vm.pending_op == VmSlot::PendingOp::kDrainMove) {
      RollbackMigration(now, vm);
    }
  }
  SimTime done = ReturnHomeGroup(now, home_id, kNoVm, now);
  fault_.RecordRecovered(FaultClass::kMemoryServerFailure, now, done,
                         obs::TraceArgs{static_cast<int64_t>(home_id)});
}

void Actuator::InjectMigrationAbort(SimTime now, int64_t target) {
  for (VmSlot& vm : state_.vms) {
    if (target >= 0 && vm.id != static_cast<VmId>(target)) {
      continue;
    }
    if (!RollbackMigration(now, vm, /*check_only=*/true)) {
      continue;
    }
    // The stream aborts at a page boundary: the destination discards the
    // half-copied pages and the VM stays (or resumes) at its source with a
    // consistent image.
    SimTime started = std::min(vm.migration_start, now);
    HostId dest = vm.location;
    fault_.RecordInjected(FaultClass::kMigrationAbort, now,
                          obs::TraceArgs{static_cast<int64_t>(dest),
                                         static_cast<int64_t>(vm.id)});
    bool rolled = RollbackMigration(now, vm);
    assert(rolled && "the check-only pass admitted an un-rollbackable op");
    (void)rolled;
    fault_.RecordRecovered(FaultClass::kMigrationAbort, started, now,
                           obs::TraceArgs{static_cast<int64_t>(vm.location),
                                          static_cast<int64_t>(vm.id)});
    return;
  }
  fault_.RecordSkipped(FaultClass::kMigrationAbort, now, obs::TraceArgs{-1, target});
}

void Actuator::FinishMigration(SimTime now, VmId vm_id, uint32_t epoch) {
  VmSlot& vm = Slot(vm_id);
  if (vm.op_epoch != epoch) {
    return;  // aborted (or superseded) in the meantime
  }
  SetInFlight(vm, false);
  vm.pending_op = VmSlot::PendingOp::kNone;
  if (vm.activation_pending) {
    vm.activation_pending = false;
    if (vm.residency == VmResidency::kPartial) {
      HandleActivation(now, vm_id, vm.activation_time);
    } else {
      metrics_.transition_delay_s.Add((now - vm.activation_time).seconds());
    }
  }
}

void Actuator::AccrueEnergy(SimTime now) {
  metrics_.home_host_energy = 0.0;
  metrics_.consolidation_host_energy = 0.0;
  metrics_.memory_server_energy = 0.0;
  for (const auto& host : state_.hosts) {
    host->AdvanceLedger(now);
    Joules e = host->HostEnergy(now);
    if (host->IsHomeHost()) {
      metrics_.home_host_energy += e;
    } else {
      metrics_.consolidation_host_energy += e;
    }
    metrics_.memory_server_energy += host->MemoryServerEnergy(now);
  }
}

void Actuator::BookFullMigration(SimTime start, SimTime end, const VmSlot& vm, HostId dest) {
  metrics_.traffic.Add(TrafficCategory::kFullMigration, vm.full_bytes);
  ++metrics_.full_migrations;
  TraceMigration("full_migration", start, end, vm.id, dest, vm.full_bytes);
}

void Actuator::RecordPartialMigrationTraffic(SimTime now, VmSlot& vm, HostId dest) {
  metrics_.traffic.Add(TrafficCategory::kPartialDescriptor, kDescriptorBytes);
  bool first = !state_.vm_ever_uploaded[vm.id];
  state_.vm_ever_uploaded[vm.id] = true;
  uint64_t upload = first ? kFirstUploadBytes : kRepeatUploadBytes;
  metrics_.traffic.Add(TrafficCategory::kMemoryUpload, upload);
  ++metrics_.partial_migrations;
  if (obs::Tracer* t = obs::Tracer::IfEnabled()) {
    t->Complete("migration", "descriptor_push", now, now,
                obs::TraceArgs{static_cast<int64_t>(dest),
                               static_cast<int64_t>(vm.id),
                               static_cast<int64_t>(kDescriptorBytes)});
    t->Complete("migration", "memory_upload", now, now,
                obs::TraceArgs{static_cast<int64_t>(vm.home),
                               static_cast<int64_t>(vm.id),
                               static_cast<int64_t>(upload)});
  }
  if (obs::MetricsRegistry* m = obs::MetricsRegistry::IfEnabled()) {
    m->counter("cluster.descriptor_pushes")->Increment();
  }
}

}  // namespace oasis
