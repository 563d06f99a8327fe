#include "src/cluster/host.h"

#include <algorithm>
#include <cassert>

#include "src/check/check.h"
#include "src/common/log.h"

namespace oasis {

ClusterHost::ClusterHost(HostId id, HostRole role, const ClusterConfig& config,
                         bool initially_powered)
    : ClusterHost(id, role, config, config.HostProfileFor(id), initially_powered) {}

ClusterHost::ClusterHost(HostId id, HostRole role, const ClusterConfig& config,
                         const HostProfile& profile, bool initially_powered)
    : id_(id),
      role_(role),
      power_(profile.power),
      s3_capable_(profile.s3_capable),
      profile_class_(config.ProfileClassOf(id)),
      ms_watts_(config.memory_server_power.TotalWatts()),
      capacity_bytes_(static_cast<uint64_t>(static_cast<double>(config.host_memory_bytes) *
                                            config.memory_overcommit *
                                            profile.capacity_scale)),
      // A home only ever holds its own contiguous id range, a consolidation
      // host any VM of the rack.
      vms_(role == HostRole::kHome ? id * static_cast<VmId>(config.vms_per_home) : VmId{0},
           static_cast<size_t>(role == HostRole::kHome ? config.vms_per_home : config.TotalVms())),
      // An S3-incapable host has no sleeping state to start in.
      state_(initially_powered || !profile.s3_capable ? HostPowerState::kPowered
                                                      : HostPowerState::kSleeping),
      meter_(SimTime::Zero(), 0.0),
      ms_meter_(SimTime::Zero(), 0.0),
      ledger_(SimTime::Zero(), state_) {
  ledger_.set_trace_host(static_cast<int64_t>(id));
}

Watts ClusterHost::CurrentDraw() const {
  return power_.Draw(state_, static_cast<int>(vms_.size()));
}

void ClusterHost::Transition(SimTime now, HostPowerState next) {
  if (next == HostPowerState::kSuspending && !s3_capable_) {
    if (check::InvariantChecker* c = check::InvariantChecker::IfEnabled()) {
      c->Report("power.s3_on_incapable_host", now,
                "host " + std::to_string(id_) +
                    " entered kSuspending but its profile has s3_capable=false");
    }
  }
  CloseSegment(now);
  state_ = next;
  ledger_.Transition(now, next);
}

void ClusterHost::RequestWake(Simulator& sim) {
  switch (state_) {
    case HostPowerState::kPowered:
    case HostPowerState::kResuming:
      return;
    case HostPowerState::kSuspending:
      // The S3 entry cannot abort; the wake starts right after it completes.
      wake_after_suspend_ = true;
      return;
    case HostPowerState::kSleeping:
      break;
  }
  Transition(sim.now(), HostPowerState::kResuming);
  sim.ScheduleAfter(power_.resume_latency,
                    MakeEvent(ClusterEvent::kResumeDone, id_, ++transition_epoch_));
}

void ClusterHost::RequestSleep(Simulator& sim) {
  if (state_ != HostPowerState::kPowered) {
    return;
  }
  assert(active_vms_ == 0 && "host with active VMs must never sleep");
  Transition(sim.now(), HostPowerState::kSuspending);
  sim.ScheduleAfter(power_.suspend_latency,
                    MakeEvent(ClusterEvent::kSuspendDone, id_, ++transition_epoch_));
}

bool ClusterHost::FinishResume(SimTime now, uint64_t epoch) {
  if (transition_epoch_ != epoch || state_ != HostPowerState::kResuming) {
    return false;
  }
  Transition(now, HostPowerState::kPowered);
  return true;
}

bool ClusterHost::FinishSuspend(Simulator& sim, uint64_t epoch) {
  if (transition_epoch_ != epoch || state_ != HostPowerState::kSuspending) {
    return false;
  }
  Transition(sim.now(), HostPowerState::kSleeping);
  if (wake_after_suspend_) {
    wake_after_suspend_ = false;
    RequestWake(sim);
  }
  return true;
}

void ClusterHost::Crash(SimTime now) {
  assert(vms_.empty() && "crash recovery must relocate resident VMs first");
  assert(active_vms_ == 0);
  ++transition_epoch_;  // invalidate any in-flight suspend/resume completion
  wake_after_suspend_ = false;
  if (state_ != HostPowerState::kSleeping) {
    Transition(now, HostPowerState::kSleeping);
  }
  SetMemoryServerPowered(now, false);
}

SimTime ClusterHost::EarliestPoweredTime(SimTime now) const {
  switch (state_) {
    case HostPowerState::kPowered:
      return now;
    case HostPowerState::kResuming:
    case HostPowerState::kSleeping:
      return now + power_.resume_latency;
    case HostPowerState::kSuspending:
      return now + power_.suspend_latency + power_.resume_latency;
  }
  return now;
}

SimTime ClusterHost::EnqueueOutboundMigration(SimTime now, SimTime duration) {
  SimTime start = std::max(now, outbound_busy_until_);
  outbound_busy_until_ = start + duration;
  return outbound_busy_until_;
}

SimTime ClusterHost::EnqueueInboundTransfer(SimTime now, SimTime duration) {
  SimTime start = std::max(now, inbound_busy_until_);
  inbound_busy_until_ = start + duration;
  return inbound_busy_until_;
}

void ClusterHost::SetMemoryServerPowered(SimTime now, bool on) {
  if (ms_powered_ == on) {
    return;
  }
  ms_powered_ = on;
  ms_meter_.SetDraw(now, on ? ms_watts_ : 0.0);
}

Joules ClusterHost::HostEnergy(SimTime now) {
  CloseSegment(now);
  return meter_.total_joules();
}

Joules ClusterHost::MemoryServerEnergy(SimTime now) {
  ms_meter_.Advance(now);
  return ms_meter_.total_joules();
}

}  // namespace oasis
