#include "src/cluster/manager.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <string>
#include <vector>

#include "src/check/check.h"
#include "src/cluster/invariants.h"
#include "src/common/log.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace oasis {

ClusterManager::ClusterManager(const ClusterConfig& config, TraceSet trace)
    : config_(config),
      trace_(std::move(trace)),
      rng_(config.seed),
      ws_sampler_(config.vm_memory_bytes, config.seed ^ 0x5EED5EEDull),
      fault_(config.fault, config.seed ^ 0xFA0175EEDull),
      strategy_(MakeStrategy(config.strategy_name)),
      act_(config_, sim_, rng_, ws_sampler_, fault_, state_, metrics_) {
  assert(!trace_.empty() && "cluster needs at least one user-day");
  Status valid = config_.Validate();
  if (!valid.ok()) {
    OASIS_LOG(kError) << "invalid cluster config: " << valid.ToString();
  }
  assert(valid.ok());
  assert(strategy_ != nullptr && "Validate() guarantees a registered strategy_name");
  // Hosts: homes first, then consolidation hosts (asleep by default, §3.1).
  // The vector is filled here and never resized, so references to its hosts
  // stay valid for the manager's lifetime.
  state_.hosts.reserve(static_cast<size_t>(config_.TotalHosts()));
  for (int h = 0; h < config_.num_home_hosts; ++h) {
    state_.hosts.emplace_back(static_cast<HostId>(h), HostRole::kHome, config_,
                              /*initially_powered=*/true);
  }
  for (int c = 0; c < config_.num_consolidation_hosts; ++c) {
    state_.hosts.emplace_back(static_cast<HostId>(config_.num_home_hosts + c),
                              HostRole::kConsolidation, config_, /*initially_powered=*/false);
  }
  int total_vms = config_.TotalVms();
  row_words_ = RowWords(static_cast<size_t>(total_vms));
  activity_rows_ = ActivityRows(trace_, static_cast<size_t>(total_vms));
  // VMs: vms_per_home per home host; activity from trace interval 0.
  state_.vms.reserve(static_cast<size_t>(total_vms));
  state_.vm_ever_uploaded.assign(static_cast<size_t>(total_vms), false);
  state_.vms_per_home = static_cast<size_t>(config_.vms_per_home);
  for (int v = 0; v < total_vms; ++v) {
    VmSlot slot;
    slot.id = static_cast<VmId>(v);
    slot.home = static_cast<HostId>(v / config_.vms_per_home);
    slot.location = slot.home;
    const bool active = trace_[static_cast<size_t>(v) % trace_.size()].IsActive(0);
    slot.activity = active ? VmActivity::kActive : VmActivity::kIdle;
    slot.residency = VmResidency::kFullAtHome;
    state_.vms.push_back(slot);
    ClusterHost& home = state_.hosts[slot.home];
    home.AddVm(SimTime::Zero(), slot.id);
    home.Reserve(config_.vm_memory_bytes);
    if (slot.activity == VmActivity::kActive) {
      home.SetActiveVms(SimTime::Zero(), home.active_vms() + 1);
    }
  }
  state_.pending_wake_powered_at.assign(state_.hosts.size(), SimTime::Zero());
  // Every VM starts full at home with nothing in flight, so every maintained
  // aggregate starts at zero.
  state_.partials_homed.assign(state_.hosts.size(), 0);
  state_.fac_homed.assign(state_.hosts.size(), 0);
  state_.fac_vm_bits.assign(row_words_, 0);
  state_.inflight_residents.assign(state_.hosts.size(), 0);
  state_.partial_residents.assign(state_.hosts.size(), 0);
  state_.upkeep_residents.assign(state_.hosts.size(), 0);
  state_.upkeep = UpkeepRates(config_.planning_interval);
  state_.trusted_idle.assign(row_words_, 0);
  UpdateTrustedIdleBits(0);
  // Plans fire every planning_interval (§3.1's configurable knob); each tick
  // reads the activity trace at its own 5-minute resolution.
  for (int t = 0; t < RoundsPerDay(); ++t) {
    sim_.ScheduleAt(config_.planning_interval * t,
                    MakeEvent(ClusterEvent::kRound, static_cast<uint64_t>(t)));
  }
  // The pre-sampled fault schedule rides the same event queue, so a fault
  // landing between planning rounds interleaves with migrations exactly as
  // a real failure would.
  if (fault_.enabled()) {
    const std::vector<ScheduledFault>& faults = fault_.plan().events;
    for (size_t i = 0; i < faults.size(); ++i) {
      if (faults[i].at <= SimTime::Hours(24.0)) {
        sim_.ScheduleAt(faults[i].at, MakeEvent(ClusterEvent::kFault, i));
      }
    }
  }
}

void ClusterManager::RunUntil(SimTime until) {
  // Collectors never change mid-run, so each step resolves them on entry.
  SetCollectors();
  sim_.RunUntil(until, [this](const Event& ev) { Dispatch(ev); });
}

void ClusterManager::SetCollectors() {
  act_.SetCollectors(obs::Tracer::IfEnabled(), obs::MetricsRegistry::IfEnabled());
  round_counters_ = {};
}

void ClusterManager::Dispatch(const Event& ev) {
  const SimTime now = sim_.now();
  const HostId host = static_cast<HostId>(ev.a);
  switch (static_cast<ClusterEvent>(ev.kind)) {
    case ClusterEvent::kRound:
      OnInterval(now, static_cast<int>(ev.a));
      return;
    case ClusterEvent::kFault:
      act_.ApplyScheduledFault(now, fault_.plan().events[ev.a]);
      return;
    case ClusterEvent::kSleepCheck:
      act_.MaybeSleepHomeHost(now, host);
      return;
    case ClusterEvent::kWolRetry:
      act_.ResendWake(host);
      return;
    case ClusterEvent::kMigrationDone:
      act_.FinishMigration(static_cast<VmId>(ev.a), static_cast<uint32_t>(ev.b));
      return;
    case ClusterEvent::kResumeDone:
      act_.FinishResume(host, ev.b);
      return;
    case ClusterEvent::kSuspendDone:
      act_.FinishSuspend(host, ev.b);
      return;
  }
  assert(false && "unknown event kind");
}

ClusterMetrics ClusterManager::Run() {
  const SimTime end = SimTime::Hours(24.0);
  RunUntil(end);
  // Completions due by the end of the day land before anything is settled
  // or read; what is still in flight stays listed, in a list cut to size.
  act_.RetireCompletions();
  state_.completions.shrink_to_fit();
  // Upkeep is lazy, so on-demand traffic and each VM's counters are only
  // complete once every VM is settled.
  act_.SettleAllUpkeep();
  act_.AccrueEnergy(end);
  if (check::InvariantChecker* c = check::InvariantChecker::IfEnabled()) {
    CheckClusterInvariants(*this, end, *c);
  }
  metrics_.baseline_energy = BaselineEnergy(config_);
  metrics_.hosts_by_class.assign(static_cast<size_t>(config_.NumProfileClasses()), 0);
  metrics_.host_sleep_seconds_by_class.assign(
      static_cast<size_t>(config_.NumProfileClasses()), 0.0);
  for (const ClusterHost& host : state_.hosts) {
    size_t cls = static_cast<size_t>(host.profile_class());
    ++metrics_.hosts_by_class[cls];
    metrics_.host_sleep_seconds_by_class[cls] +=
        host.ledger().TimeInAt(HostPowerState::kSleeping, end).seconds();
  }
  metrics_.faults_injected = fault_.TotalInjected();
  metrics_.faults_recovered = fault_.TotalRecovered();
  for (int c = 0; c < kNumFaultClasses; ++c) {
    FaultClass fault = static_cast<FaultClass>(c);
    metrics_.fault_injected_by_class[c] = fault_.injected(fault);
    metrics_.fault_recovered_by_class[c] = fault_.recovered(fault);
    metrics_.fault_skipped_by_class[c] = fault_.skipped(fault);
  }
  // A retired completion counts as the event it once was, in the metrics
  // and in the registry counter the simulator keeps for its own pops.
  metrics_.events_dispatched = sim_.events_dispatched() + act_.completions_retired();
  if (obs::MetricsRegistry* m = act_.registry()) {
    m->counter("sim.events_dispatched")->Increment(act_.completions_retired());
  }
  return metrics_;
}

int ClusterManager::RoundsPerDay() const {
  return static_cast<int>(SimTime::Hours(24.0) / config_.planning_interval);
}

int ClusterManager::TraceIntervalAt(SimTime now) const {
  int round = std::min(RoundsPerDay() - 1, static_cast<int>(now / config_.planning_interval));
  return RoundInterval(round);
}

int ClusterManager::RoundInterval(int round) const {
  SimTime when = config_.planning_interval * round;
  return std::min(kIntervalsPerDay - 1, static_cast<int>(when.seconds()) / kTraceIntervalSeconds);
}

Joules ClusterManager::BaselineEnergy(const ClusterConfig& config) {
  // Every home host stays powered all day running its own VMs (§5.3's
  // normalization). The draw saturates with the resident VM count, so the
  // baseline is flat regardless of user activity. On a mixed fleet each
  // home is billed at its own generation's loaded draw; the homogeneous
  // default is a single product.
  std::vector<int> homes_in_class(config.NumProfileClasses(), 0);
  for (int h = 0; h < config.num_home_hosts; ++h) {
    ++homes_in_class[config.ProfileClassOf(static_cast<HostId>(h))];
  }
  Watts total = 0.0;
  for (int cls = 0; cls < config.NumProfileClasses(); ++cls) {
    if (homes_in_class[cls] == 0) {
      continue;
    }
    const HostProfile profile = config.ResolvedProfile(cls);
    total += profile.power.Draw(HostPowerState::kPowered, config.vms_per_home) *
             homes_in_class[cls];
  }
  return EnergyOver(total, SimTime::Hours(24.0));
}

void ClusterManager::OnInterval(SimTime now, int round) {
  OASIS_CLOG(kDebug, "cluster") << "planning round " << RoundInterval(round);
  act_.RetireCompletions();
  UpdateActivities(now, round);
  act_.PartialVmUpkeep(now);
  PlanAndRecord(now);
}

void ClusterManager::PlanAndRecord(SimTime now) {
  PlanActions actions = strategy_->PlanInterval(View(), now, act_);
  act_.SleepIdleConsolidationHosts(now);
  // Sweep home hosts that drained since the last interval.
  for (const ClusterHost& host : state_.hosts) {
    if (host.IsHomeHost()) {
      act_.MaybeSleepHomeHost(now, host.id());
    }
  }
  RecordSnapshot(now);
  if (check::InvariantChecker* c = check::InvariantChecker::IfEnabled()) {
    // The conservation walk runs after every planning round, so a violation
    // is reported within one interval of the step that introduced it.
    CheckClusterInvariants(*this, now, *c);
  }
  // All the work above happens at one simulated instant; the round still
  // gets a span so Perfetto shows where each burst of migrations came from.
  if (obs::Tracer* t = act_.tracer()) {
    t->Complete("ctrl", "planning_round", now, now);
    // The strategy's executed-action record is observability-only: it never
    // feeds ClusterMetrics, so enabling it cannot perturb pinned outputs.
    t->Instant("ctrl", "policy_actions", now,
               obs::TraceArgs{static_cast<int64_t>(actions.vacated_hosts),
                              static_cast<int64_t>(actions.vacate_moves),
                              static_cast<int64_t>(actions.drain_moves)});
  }
  if (obs::MetricsRegistry* m = act_.registry()) {
    RoundCounters& c = round_counters_;
    if (c.rounds == nullptr) {
      const std::string prefix = std::string("cluster.policy.") + strategy_->name();
      c = {m->counter("cluster.planning_rounds"), m->counter(prefix + ".vacated_hosts"),
           m->counter(prefix + ".vacate_moves"), m->counter(prefix + ".drain_moves"),
           m->counter(prefix + ".swapped_vms")};
    }
    c.rounds->Increment();
    c.vacated_hosts->Increment(static_cast<uint64_t>(actions.vacated_hosts));
    c.vacate_moves->Increment(static_cast<uint64_t>(actions.vacate_moves));
    c.drain_moves->Increment(static_cast<uint64_t>(actions.drain_moves));
    c.swapped_vms->Increment(static_cast<uint64_t>(actions.swapped_vms));
  }
}

void ClusterManager::UpdateActivities(SimTime now, int round) {
  // Every vm.activity matches the row of the interval applied last, so the
  // XOR of the two rows names exactly the VMs that flip, visited in
  // ascending id. A round that revisits its interval (planning below 5
  // minutes) flips nothing; one that skips intervals flips straight to its
  // own row.
  const int interval = RoundInterval(round);
  const uint64_t* next = ActivityRow(interval);
  const uint64_t* prev = ActivityRow(applied_interval_);
  applied_interval_ = interval;
  for (size_t w = 0; w < row_words_; ++w) {
    for (uint64_t flips = next[w] ^ prev[w]; flips != 0; flips &= flips - 1) {
      int bit = std::countr_zero(flips);
      VmSlot& vm = state_.vms[64 * w + static_cast<size_t>(bit)];
      if ((next[w] >> bit) & 1u) {
        vm.activity = VmActivity::kActive;
        vm.activation_time = now;
        act_.AdjustActiveCount(now, vm.location, +1);
        if (obs::Tracer* t = act_.tracer()) {
          obs::TraceArgs args{static_cast<int64_t>(vm.location), static_cast<int64_t>(vm.id)};
          t->Instant("ctrl", "vm_activation", now, args);
        }
        act_.HandleActivation(now, vm.id, now);
      } else {
        vm.activity = VmActivity::kIdle;
        act_.AdjustActiveCount(now, vm.location, -1);
      }
    }
  }
  UpdateTrustedIdleBits(round);
}

void ClusterManager::UpdateTrustedIdleBits(int round) {
  // Rounds sit at planning_interval * t, so "idle for the smoothing window"
  // is "idle in the rows of rounds round - k .. round"; a round before 0
  // reads row 0.
  std::vector<uint64_t>& trusted = state_.trusted_idle;
  std::fill(trusted.begin(), trusted.end(), ~uint64_t{0});
  for (int r = std::max(0, round - config_.idle_smoothing_intervals); r <= round; ++r) {
    const uint64_t* row = ActivityRow(RoundInterval(r));
    for (size_t w = 0; w < row_words_; ++w) {
      trusted[w] &= ~row[w];
    }
  }
  // Bits past the last VM stay clear.
  size_t total_vms = state_.vms.size();
  if (total_vms % 64 != 0) {
    trusted[row_words_ - 1] &= ~uint64_t{0} >> (64 - total_vms % 64);
  }
}

void ClusterManager::RecordSnapshot(SimTime now) {
  IntervalSnapshot snap;
  snap.time = now;
  // Every VM counts toward exactly one host's active count and exactly one
  // home's residency counts, so per-host sums replace a walk over all VMs.
  for (size_t h = 0; h < state_.hosts.size(); ++h) {
    snap.active_vms += state_.hosts[h].active_vms();
    snap.partial_vms += state_.partials_homed[h];
    snap.full_at_consolidation_vms += state_.fac_homed[h];
  }
  for (const ClusterHost& host : state_.hosts) {
    if (!host.IsPowered()) {
      continue;
    }
    ++snap.powered_hosts;
    if (host.IsHomeHost()) {
      ++snap.powered_home_hosts;
    } else {
      ++snap.powered_consolidation_hosts;
      metrics_.consolidation_ratio.Add(static_cast<double>(host.vms().size()));
    }
  }
  metrics_.timeline.push_back(snap);
}

}  // namespace oasis
