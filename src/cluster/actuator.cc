#include "src/cluster/actuator.h"

#include <algorithm>
#include <cassert>
#include <set>
#include <string>
#include <vector>

#include "src/common/log.h"
#include "src/hyper/migration_model.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace oasis {

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

void Actuator::RelocateGroup(SimTime now, std::span<const Move> moves) {
  if (host_delta_.size() < state_.hosts.size()) {
    host_delta_.resize(state_.hosts.size());
  }
  auto touch = [this](HostId host) -> HostDelta& {
    HostDelta& d = host_delta_[host];
    if (d.host == nullptr) {
      d.host = &HostOf(host);
      d.consolidation = d.host->IsConsolidationHost();
      touched_.push_back(host);
    }
    return d;
  };
  // A VM's share of its host's sums: its counts, and what a consolidation
  // host reserves for it (a home reserves its own VMs' full footprints for
  // the whole day, wherever they are).
  auto count = [this](HostDelta& d, const VmSlot& vm, int sign) {
    d.inflight += vm.migration_in_flight ? sign : 0;
    d.partial += vm.residency == VmResidency::kPartial ? sign : 0;
    d.upkeep += vm.UpkeepEligible() ? sign : 0;
    d.active += vm.activity == VmActivity::kActive ? sign : 0;
    if (d.consolidation) {
      const uint64_t footprint =
          vm.residency == VmResidency::kPartial ? vm.ws_bytes : config_.vm_memory_bytes;
      (sign > 0 ? d.reserve : d.release) += footprint;
    }
  };
  for (const Move& m : moves) {
    VmSlot& vm = Slot(m.vm);
    const HostId source = vm.location;
    const bool was_eligible = vm.UpkeepEligible();
    const bool eligible_after = m.residency == VmResidency::kPartial &&
                                !vm.migration_in_flight && m.op == VmSlot::PendingOp::kNone;
    assert((!was_eligible || (m.dest == source && eligible_after) ||
            vm.upkeep_mark == state_.upkeep_round) &&
           "an unsettled VM moved");
    HostDelta& from = touch(source);
    HostDelta& to = touch(m.dest);
    count(from, vm, -1);
    if (m.dest != source) {
      from.host->RemoveVm(now, vm.id);
      to.host->AddVm(now, vm.id);
      vm.location = m.dest;
    }
    if (m.residency != VmResidency::kPartial) {
      vm.ws_bytes = vm.ws_unfetched = vm.dirty_bytes = 0;
    } else if (vm.residency != VmResidency::kPartial) {
      vm.ws_bytes = vm.ws_unfetched = m.ws;  // nothing fetched or dirtied yet
    }
    // A VM's home never changes, so the per-home counts follow the residency
    // alone, and the per-VM full-at-consolidation bit follows the VM itself.
    if (m.residency != vm.residency) {
      HostDelta& home = touch(vm.home);
      const uint64_t bit = uint64_t{1} << (vm.id % 64);
      uint64_t& word = state_.fac_vm_bits[vm.id / 64];
      home.homed_partial += (m.residency == VmResidency::kPartial) -
                            (vm.residency == VmResidency::kPartial);
      home.homed_fac += (m.residency == VmResidency::kFullAtConsolidation) -
                        (vm.residency == VmResidency::kFullAtConsolidation);
      word = m.residency == VmResidency::kFullAtConsolidation ? word | bit : word & ~bit;
      vm.residency = m.residency;
    }
    if (!was_eligible && vm.UpkeepEligible()) {
      vm.upkeep_mark = state_.upkeep_round;
    }
    if (m.op != VmSlot::PendingOp::kNone) {
      vm.migration_in_flight = true;
      FileCompletion(vm, m.start, m.done, m.op, m.source);
    }
    count(to, vm, +1);
  }
  for (HostId id : touched_) {
    HostDelta& d = host_delta_[id];
    ClusterHost& host = *d.host;
    state_.inflight_residents[id] += d.inflight;
    state_.partial_residents[id] += d.partial;
    state_.upkeep_residents[id] += d.upkeep;
    state_.partials_homed[id] += d.homed_partial;
    state_.fac_homed[id] += d.homed_fac;
    host.Release(d.release);
    host.Reserve(d.reserve);
    if (d.active != 0) {
      host.SetActiveVms(now, host.active_vms() + d.active);
    }
    d = HostDelta{};
  }
  touched_.clear();
}

void Actuator::SetInFlight(VmSlot& vm, bool in_flight) {
  if (vm.migration_in_flight == in_flight) {
    return;
  }
  bool was_eligible = vm.UpkeepEligible();
  vm.migration_in_flight = in_flight;
  state_.inflight_residents[vm.location] += in_flight ? 1 : -1;
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

void Actuator::SettleUpkeep(VmSlot& vm, uint32_t extra) {
  const uint64_t pending = UpkeepRates::PendingRounds(vm, state_.upkeep_round);
  if (pending + extra == 0) {
    return;
  }
  const UpkeepCounters c = state_.upkeep.Advance(vm, pending + extra, pending);
  vm.ws_bytes = c.ws_bytes;
  vm.ws_unfetched = c.ws_unfetched;
  vm.dirty_bytes = c.dirty_bytes;
  vm.upkeep_mark = state_.upkeep_round + extra;
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
    if (!vm.activation_pending) {
      // The user waits for the move to land: its completion becomes an
      // event at its reserved key.
      vm.activation_pending = true;
      const std::vector<PendingCompletion>& pending = state_.completions;
      auto live = std::find_if(pending.begin(), pending.end(), [&vm](const PendingCompletion& c) {
        return c.vm == vm.id && c.epoch == vm.op_epoch;
      });
      assert(live != pending.end() && "an in-flight VM has a pending completion");
      QueueKeyedCompletion(*live);
    }
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
  const uint64_t vm_bytes = config_.vm_memory_bytes;
  if (!host.CanFit(vm_bytes - vm.ws_bytes)) {
    return false;
  }
  // CPU bound (§3 assumption 1): the activation was already counted here.
  if (host.active_vms() > kMaxActiveVmsPerHost) {
    return false;
  }
  // Pre-fetch the remaining footprint from the memory server (§4.4.4: a
  // partial VM that turns active converts to a full VM).
  uint64_t fetched = vm.ws_bytes - vm.ws_unfetched;
  metrics_.traffic.Add(TrafficCategory::kOnDemandPages, vm_bytes - fetched);
  // The VM's working set is already resident, so it responds as soon as its
  // vCPUs are rescheduled with full memory commitment; the bulk of the
  // footprint streams in from the memory server in the background.
  SimTime done = now + kReintegrationTime;
  Relocate(now, {vm.id, vm.location, VmResidency::kFullAtConsolidation, 0,
                 VmSlot::PendingOp::kOther, now, done, vm.location});
  TraceMigration("convert_in_place", now, done, vm.id, vm.location, vm_bytes - fetched);
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
    if (id != vm.location && candidate->IsPowered() &&
        candidate->CanFit(config_.vm_memory_bytes) &&
        candidate->active_vms() < kMaxActiveVmsPerHost) {
      candidates.push_back(id);
    }
  }
  if (candidates.empty()) {
    return false;
  }
  HostId target_id = candidates[rng_.NextBelow(candidates.size())];
  HostId old_location = vm.location;
  ++metrics_.new_home_moves;
  SimTime done = now + kReintegrationTime;
  Relocate(now, {vm.id, target_id, VmResidency::kFullAtConsolidation, 0,
                 VmSlot::PendingOp::kOther, now, done, old_location});
  Tally tally;
  TallyFullMigration(tally, now, done, vm.id, target_id);
  Book(tally);
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

  // One group, each move priced in its order: the requester reintegrates
  // first (its delay is what the user feels), then the home's other partial
  // VMs, then its idle full VMs live-migrate back (§3.2: "Migrating back all
  // full VMs that were originally homed on the awake host creates additional
  // space on the consolidation hosts"), each in ascending id.
  moves_.clear();
  uint64_t dirty_total = 0;
  auto reintegrate = [&](VmSlot& vm) {
    SettleUpkeep(vm);
    const uint64_t dirty = vm.dirty_bytes;
    dirty_total += dirty;
    SimTime done = home.EnqueueInboundTransfer(t0, kReintegrationTransfer) + kReintegrationFixed;
    TraceMigration("reintegration", t0, done, vm.id, home_id, dirty);
    const VmSlot::PendingOp op =
        vm.id == requester ? VmSlot::PendingOp::kOther : VmSlot::PendingOp::kReturnMove;
    moves_.emplace_back(vm.id, home_id, VmResidency::kFullAtHome, 0, op, t0, done, home_id);
    if (vm.id == requester) {
      metrics_.transition_delay_s.Add((done - activation_time).seconds());
    }
    last_done = std::max(last_done, done);
  };
  auto returns_partial = [](const VmSlot& vm) {
    return !vm.migration_in_flight && vm.residency == VmResidency::kPartial;
  };
  const std::span<VmSlot> own = state_.VmsOfHome(home_id);
  if (requester != kNoVm && returns_partial(Slot(requester))) {
    reintegrate(Slot(requester));
  }
  for (VmSlot& vm : own) {
    if (vm.id != requester && returns_partial(vm)) {
      reintegrate(vm);
    }
  }
  metrics_.traffic.Add(TrafficCategory::kReintegration, dirty_total, moves_.size());
  metrics_.reintegrations += moves_.size();
  Tally tally;
  for (const VmSlot& vm : own) {
    if (vm.migration_in_flight || vm.residency != VmResidency::kFullAtConsolidation ||
        vm.activity != VmActivity::kIdle) {
      continue;
    }
    HostId source_id = vm.location;
    SimTime done = HostOf(source_id).EnqueueOutboundMigration(t0, kFullMigrationTime);
    TallyFullMigration(tally, done - kFullMigrationTime, done, vm.id, home_id);
    moves_.emplace_back(vm.id, home_id, VmResidency::kFullAtHome, 0,
                        VmSlot::PendingOp::kFullReturnMove, done - kFullMigrationTime, done,
                        source_id);
    last_done = std::max(last_done, done);
  }
  RelocateGroup(now, moves_);
  Book(tally);
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
    // settles and takes this round without growth, now.
    uint64_t seen = 0;
    for (VmId id : host.vms()) {
      VmSlot& vm = Slot(id);
      if (!vm.UpkeepEligible() || seen++ < fits) {
        continue;
      }
      SettleUpkeep(vm, 1);
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
  // Leg 2 fits when its consolidation host has room once the VM's own leg 1
  // and every earlier VM's legs have run; the moves apply as one group, so
  // each host's room is followed here.
  struct Room {
    HostId host;
    uint64_t available;
  };
  std::vector<Room> rooms;
  moves_.clear();
  Tally tally;
  for (VmId id : group) {
    const HostId cons_id = Slot(id).location;
    ClusterHost& cons = HostOf(cons_id);
    auto room = std::find_if(rooms.begin(), rooms.end(),
                             [cons_id](const Room& r) { return r.host == cons_id; });
    if (room == rooms.end()) {
      rooms.push_back({cons_id, cons.AvailableBytes()});
      room = rooms.end() - 1;
    }
    // Leg 1: live-migrate the full VM back home.
    SimTime done1 = cons.EnqueueOutboundMigration(t0, kFullMigrationTime);
    TallyFullMigration(tally, done1 - kFullMigrationTime, done1, id, home_id);
    room->available += config_.vm_memory_bytes;
    // Leg 2: partial-migrate back to the same consolidation host.
    uint64_t ws = ws_sampler_.Sample();
    if (ws <= room->available) {
      room->available -= ws;
      moves_.emplace_back(id, home_id, VmResidency::kFullAtHome);
      TallyPartialMigration(tally, now, id, home_id, cons_id);
      ++metrics_.full_to_partial_swaps;
      SimTime done2 = home.EnqueueOutboundMigration(done1, kPartialMigrationTime);
      TraceMigration("partial_migration", done2 - kPartialMigrationTime, done2, id, cons_id,
                     ws);
      moves_.emplace_back(id, cons_id, VmResidency::kPartial, ws, VmSlot::PendingOp::kSwapReturn,
                          done2 - kPartialMigrationTime, done2, home_id);
    } else {
      // No room for even the partial: the VM stays home.
      moves_.emplace_back(id, home_id, VmResidency::kFullAtHome, 0, VmSlot::PendingOp::kOther, t0,
                          done1, cons_id);
    }
  }
  RelocateGroup(now, moves_);
  Book(tally);
  sim_.ScheduleAt(std::max(now, home.outbound_busy_until()),
                  MakeEvent(ClusterEvent::kSleepCheck, home_id));
}

void Actuator::CommitVacatePlan(SimTime now, const VacatePlan& plan) {
  // Each destination is woken once, by its first placement, and every later
  // placement reuses the time it is ready: nothing else runs at this
  // instant, so a second wake would find the same host and return the same
  // time. host_wakes counts every placement onto an unpowered destination,
  // because pinned digests fold that count.
  // Per host: when the destination is ready, once its first placement
  // woke it.
  constexpr SimTime kNotWoken = SimTime::Micros(-1);
  std::vector<SimTime> ready(state_.hosts.size(), kNotWoken);
  Tally tally;
  for (size_t i = 0; i < plan.hosts_to_vacate.size(); ++i) {
    // A home's placements move as one group, cut only where a first wake
    // may file an event: the moves before it file their completions first.
    HostId source_id = plan.hosts_to_vacate[i];
    ClusterHost& source = HostOf(source_id);
    moves_.clear();
    for (const VacatePlacement& placement : plan.placements[i]) {
      VmId vm_id = placement.vm;
      HostId dest_id = placement.dest;
      ClusterHost& dest = HostOf(dest_id);
      if (ready[dest_id] == kNotWoken) {
        RelocateGroup(now, moves_);
        moves_.clear();
        StatusOr<SimTime> woken = WakeHost(now, dest_id);
        ready[dest_id] = woken.ok() ? *woken : dest.EarliestPoweredTime(now);
      } else if (!dest.IsPowered()) {
        ++metrics_.host_wakes;
      }
      const SimTime dest_ready = ready[dest_id];
      if (!placement.as_partial) {
        // Active (or not-yet-trusted idle) VMs move in full via live
        // migration, so they keep their resources and performance.
        SimTime done = source.EnqueueOutboundMigration(dest_ready, kFullMigrationTime);
        moves_.emplace_back(vm_id, dest_id, VmResidency::kFullAtConsolidation, 0,
                            VmSlot::PendingOp::kOther, now, done, source_id);
        TallyFullMigration(tally, now, done, vm_id, dest_id);
      } else {
        SimTime done = source.EnqueueOutboundMigration(dest_ready, kPartialMigrationTime);
        TallyPartialMigration(tally, now, vm_id, source_id, dest_id);
        moves_.emplace_back(vm_id, dest_id, VmResidency::kPartial, placement.bytes,
                            VmSlot::PendingOp::kVacatePartial, done - kPartialMigrationTime, done,
                            source_id);
        TraceMigration("partial_migration", done - kPartialMigrationTime, done, vm_id, dest_id,
                       placement.bytes);
      }
    }
    RelocateGroup(now, moves_);
    sim_.ScheduleAt(std::max(now, source.outbound_busy_until()),
                    MakeEvent(ClusterEvent::kSleepCheck, source_id));
  }
  Book(tally);
}

void Actuator::DrainMove(SimTime now, VmId vm_id, HostId dest_id) {
  VmSlot& vm = Slot(vm_id);
  SettleUpkeep(vm);
  HostId source_id = vm.location;
  SimTime done = HostOf(source_id).EnqueueOutboundMigration(now, kPartialMigrationTime);
  Relocate(now, {vm_id, dest_id, VmResidency::kPartial, 0, VmSlot::PendingOp::kDrainMove,
                 done - kPartialMigrationTime, done, source_id});
  // Drains ship only the descriptor; the memory image stays on the home's
  // memory server.
  Tally tally;
  TallyDescriptorPush(tally, now, vm_id, dest_id);
  Book(tally);
  TraceMigration("partial_migration", done - kPartialMigrationTime, done, vm_id, dest_id,
                 vm.ws_bytes);
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
  host.RequestSleep(sim_);
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
  if (fault_.enabled() && host.IsAsleep()) {
    // Faults attach to the WoL actually sent: each lost packet costs one
    // retry timeout, and a wedged resume costs a watchdog power-cycle.
    SimTime t = now;
    int losses = fault_.SampleWolLosses(now, static_cast<int64_t>(id));
    if (losses > 0) {
      SimTime waited = kWolRetryTimeout * static_cast<double>(losses);
      fault_.RecordRecovered(FaultClass::kWolLoss, t, t + waited,
                             obs::TraceArgs{static_cast<int64_t>(id), -1, losses});
      t = t + waited;
      if (losses >= kMaxWolRetries) {
        OASIS_CLOG(kWarning, "cluster")
            << "host " << id << " ignored " << losses
            << " WoL packets; escalating to the management processor";
        if (registry_ != nullptr) {
          registry_->counter("fault.wol_escalations")->Increment();
        }
      }
    }
    if (fault_.SampleResumeHang(now, static_cast<int64_t>(id))) {
      fault_.RecordRecovered(FaultClass::kResumeHang, t, t + kResumeWatchdog,
                             obs::TraceArgs{static_cast<int64_t>(id)});
      t = t + kResumeWatchdog;
    }
    if (t > now) {
      // The WoL that sticks goes out at t; the host powers one resume later.
      SimTime powered_at = host.EarliestPoweredTime(t);
      state_.pending_wake_powered_at[id] = powered_at;
      sim_.ScheduleAt(t, MakeEvent(ClusterEvent::kWolRetry, id));
      return powered_at;
    }
  }
  host.RequestWake(sim_);
  return host.EarliestPoweredTime(now);
}

void Actuator::ResendWake(HostId id) { HostOf(id).RequestWake(sim_); }

void Actuator::FinishResume(HostId id, uint64_t epoch) {
  if (HostOf(id).FinishResume(sim_.now(), epoch)) {
    RefreshMemoryServer(sim_.now(), id);
  }
}

void Actuator::FinishSuspend(HostId id, uint64_t epoch) {
  if (HostOf(id).FinishSuspend(sim_, epoch)) {
    RefreshMemoryServer(sim_.now(), id);
  }
}

void Actuator::RefreshMemoryServer(SimTime now, HostId home_id) {
  if (HostOf(home_id).IsConsolidationHost()) {
    return;  // consolidation hosts' memory servers are never powered (§5.1)
  }
  ClusterHost& host = HostOf(home_id);
  // partials_homed is maintained by RelocateGroup (a VM's home never
  // changes), so the refresh on every host sleep is O(1).
  bool needed = host.IsAsleep() && state_.partials_homed[home_id] > 0;
  host.SetMemoryServerPowered(now, needed);
}

void Actuator::FileCompletion(VmSlot& vm, SimTime start, SimTime done, VmSlot::PendingOp op,
                              HostId source) {
  vm.migration_start = start;
  vm.pending_op = op;
  vm.migration_source = source;
  // Written in place: a completion built aside and copied in would be
  // stored as two words and reloaded as one.
  PendingCompletion& c = state_.completions.emplace_back();
  c.done = done;
  c.seq = sim_.ReserveSeq();
  c.vm = vm.id;
  c.epoch = ++vm.op_epoch;
  // A crash restart that supersedes a move the user was already waiting on
  // keeps the wait.
  if (vm.activation_pending) {
    QueueKeyedCompletion(c);
  }
}

void Actuator::QueueKeyedCompletion(const PendingCompletion& c) {
  sim_.ScheduleKeyed(c.done, c.seq, MakeEvent(ClusterEvent::kMigrationDone, c.vm, c.epoch));
}

void Actuator::RetireCompletions() {
  const SimTime now = sim_.now();
  const uint64_t seq = sim_.current_seq();
  std::vector<PendingCompletion>& pending = state_.completions;
  size_t kept = 0;
  for (const PendingCompletion& c : pending) {
    if (c.done > now || (c.done == now && c.seq >= seq)) {
      pending[kept++] = c;
      continue;
    }
    ++completions_retired_;
    VmSlot& vm = Slot(c.vm);
    if (vm.op_epoch == c.epoch) {
      assert(!vm.activation_pending && "a waited-on completion retires as its own event");
      SetInFlight(vm, false);
      vm.pending_op = VmSlot::PendingOp::kNone;
    }
  }
  pending.resize(kept);
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
      if (!HostOf(vm.migration_source).CanFit(config_.vm_memory_bytes)) {
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
  Relocate(now, {vm.id, back_to, residency});
  ++vm.op_epoch;  // its pending completion retires as a no-op
  SetInFlight(vm, false);
  vm.pending_op = VmSlot::PendingOp::kNone;
  vm.activation_pending = false;
  return true;
}

void Actuator::ApplyScheduledFault(SimTime now, const ScheduledFault& event) {
  RetireCompletions();
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
    SimTime done = powered + kVmRestartLatency;
    TraceMigration("crash_restart", now, done, vm.id, vm.home, config_.vm_memory_bytes);
    SetInFlight(vm, true);
    FileCompletion(vm, now, done, VmSlot::PendingOp::kOther, id);
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
    SimTime done = powered + kVmRestartLatency;
    Relocate(now, {vid, vm.home, VmResidency::kFullAtHome, 0, VmSlot::PendingOp::kOther, now, done,
                   id});
    TraceMigration("crash_restart", now, done, vid, vm.home, config_.vm_memory_bytes);
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
  for (VmSlot& vm : state_.VmsOfHome(home_id)) {
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

void Actuator::FinishMigration(VmId vm_id, uint32_t epoch) {
  RetireCompletions();
  // The batch keeps entries at or after this event's key, so this one is
  // still listed; it leaves as this event, not as a retirement.
  const uint64_t seq = sim_.current_seq();
  std::vector<PendingCompletion>& pending = state_.completions;
  auto own = std::find_if(pending.begin(), pending.end(),
                          [seq](const PendingCompletion& p) { return p.seq == seq; });
  assert(own != pending.end());
  *own = pending.back();
  pending.pop_back();
  VmSlot& vm = Slot(vm_id);
  if (vm.op_epoch != epoch) {
    return;  // aborted (or superseded) in the meantime
  }
  assert(vm.activation_pending);
  SetInFlight(vm, false);
  vm.pending_op = VmSlot::PendingOp::kNone;
  vm.activation_pending = false;
  const SimTime now = sim_.now();
  if (vm.residency == VmResidency::kPartial) {
    HandleActivation(now, vm_id, vm.activation_time);
  } else {
    metrics_.transition_delay_s.Add((now - vm.activation_time).seconds());
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

void Actuator::TraceMigration(const char* name, SimTime start, SimTime end, VmId vm, HostId dest,
                              uint64_t bytes) {
  if (tracer_ != nullptr) {
    tracer_->Complete("migration", name, start, end,
                      obs::TraceArgs{static_cast<int64_t>(dest), static_cast<int64_t>(vm),
                                     static_cast<int64_t>(bytes)});
  }
  if (registry_ != nullptr) {
    registry_->counter(std::string("cluster.migrations.") + name)->Increment();
    registry_->histogram("cluster.migration_s")->Record((end - start).seconds());
  }
}

void Actuator::Book(const Tally& tally) {
  metrics_.traffic.Add(TrafficCategory::kFullMigration,
                       tally.full_migrations * config_.vm_memory_bytes, tally.full_migrations);
  metrics_.full_migrations += tally.full_migrations;
  metrics_.traffic.Add(TrafficCategory::kPartialDescriptor,
                       tally.descriptor_pushes * kDescriptorBytes, tally.descriptor_pushes);
  metrics_.partial_migrations += tally.descriptor_pushes;
  metrics_.traffic.Add(TrafficCategory::kMemoryUpload, tally.upload_bytes, tally.uploads);
}

void Actuator::TallyFullMigration(Tally& tally, SimTime start, SimTime end, VmId vm,
                                  HostId dest) {
  ++tally.full_migrations;
  TraceMigration("full_migration", start, end, vm, dest, config_.vm_memory_bytes);
}

void Actuator::TallyDescriptorPush(Tally& tally, SimTime now, VmId vm, HostId dest) {
  ++tally.descriptor_pushes;
  if (tracer_ != nullptr) {
    tracer_->Complete("migration", "descriptor_push", now, now,
                      obs::TraceArgs{static_cast<int64_t>(dest), static_cast<int64_t>(vm),
                                     static_cast<int64_t>(kDescriptorBytes)});
  }
  if (registry_ != nullptr) {
    registry_->counter("cluster.descriptor_pushes")->Increment();
  }
}

void Actuator::TallyPartialMigration(Tally& tally, SimTime now, VmId vm, HostId home,
                                     HostId dest) {
  TallyDescriptorPush(tally, now, vm, dest);
  bool first = !state_.vm_ever_uploaded[vm];
  state_.vm_ever_uploaded[vm] = true;
  uint64_t upload = first ? kFirstUploadBytes : kRepeatUploadBytes;
  ++tally.uploads;
  tally.upload_bytes += upload;
  if (tracer_ != nullptr) {
    tracer_->Complete("migration", "memory_upload", now, now,
                      obs::TraceArgs{static_cast<int64_t>(home), static_cast<int64_t>(vm),
                                     static_cast<int64_t>(upload)});
  }
}

}  // namespace oasis
