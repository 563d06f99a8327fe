#include "src/cluster/manager.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <optional>
#include <string>
#include <vector>

#include "src/check/check.h"
#include "src/cluster/invariants.h"
#include "src/common/log.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace oasis {

ClusterManager::ClusterManager(const ClusterConfig& config, TraceSet trace,
                               obs::RunContext* run_context)
    : config_(config),
      trace_(std::move(trace)),
      run_context_(run_context),
      sim_(run_context),
      rng_(config.seed),
      ws_sampler_(config.working_set, config.vm_memory_bytes, config.seed ^ 0x5EED5EEDull),
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
  for (int h = 0; h < config_.num_home_hosts; ++h) {
    state_.hosts.push_back(std::make_unique<ClusterHost>(
        static_cast<HostId>(h), HostRole::kHome, config_, /*initially_powered=*/true));
  }
  for (int c = 0; c < config_.num_consolidation_hosts; ++c) {
    state_.hosts.push_back(std::make_unique<ClusterHost>(
        static_cast<HostId>(config_.num_home_hosts + c), HostRole::kConsolidation, config_,
        /*initially_powered=*/false));
  }
  // The activity bitset, lifted from each user-day's set bits.
  int total_vms = config_.TotalVms();
  row_words_ = (static_cast<size_t>(total_vms) + 63) / 64;
  activity_rows_.assign(static_cast<size_t>(kIntervalsPerDay) * row_words_, 0);
  for (size_t v = 0; v < static_cast<size_t>(total_vms); ++v) {
    const UserDay::Words& words = trace_[v % trace_.size()].words();
    uint64_t vm_bit = uint64_t{1} << (v % 64);
    for (size_t w = 0; w < words.size(); ++w) {
      for (uint64_t bits = words[w]; bits != 0; bits &= bits - 1) {
        size_t interval = 64 * w + static_cast<size_t>(std::countr_zero(bits));
        activity_rows_[interval * row_words_ + v / 64] |= vm_bit;
      }
    }
  }
  // VMs: vms_per_home per home host; activity from trace interval 0.
  state_.vms.reserve(static_cast<size_t>(total_vms));
  state_.vm_ever_uploaded.assign(static_cast<size_t>(total_vms), false);
  state_.vms_by_home.assign(state_.hosts.size(), {});
  for (int v = 0; v < total_vms; ++v) {
    VmSlot slot;
    slot.id = static_cast<VmId>(v);
    slot.home = static_cast<HostId>(v / config_.vms_per_home);
    slot.location = slot.home;
    slot.full_bytes = config_.vm_memory_bytes;
    slot.activity = trace_[static_cast<size_t>(v) % trace_.size()].IsActive(0)
                        ? VmActivity::kActive
                        : VmActivity::kIdle;
    slot.residency = VmResidency::kFullAtHome;
    state_.vms.push_back(slot);
    state_.vms_by_home[slot.home].push_back(slot.id);
    ClusterHost& home = *state_.hosts[slot.home];
    home.AddVm(SimTime::Zero(), slot.id);
    home.Reserve(slot.full_bytes);
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
  state_.upkeep = UpkeepRates(config_);
}

ClusterMetrics ClusterManager::Run() {
  // While the run executes, every instrumentation site below this frame —
  // hosts, migrations, memory servers, the fault injector — resolves to the
  // run-local collectors. Without a context of our own the thread's
  // installed context (or the globals) stays in effect.
  std::optional<obs::RunContext::Scope> obs_scope;
  if (run_context_ != nullptr) {
    obs_scope.emplace(run_context_);
  }
  // Plans fire every planning_interval (§3.1's configurable knob); each tick
  // reads the activity trace at its own 5-minute resolution.
  SimTime end = SimTime::Hours(24.0);
  for (int t = 0; t < RoundsPerDay(); ++t) {
    SimTime when = config_.planning_interval * t;
    int interval = TraceIntervalAt(when);
    sim_.ScheduleAt(when, [this, interval]() { OnInterval(sim_.now(), interval); });
  }
  // The pre-sampled fault schedule rides the same event queue, so a fault
  // landing between planning rounds interleaves with migrations exactly as
  // a real failure would.
  if (fault_.enabled()) {
    for (const ScheduledFault& event : fault_.plan().events) {
      if (event.at > end) {
        continue;
      }
      ScheduledFault ev = event;
      sim_.ScheduleAt(ev.at, [this, ev]() { act_.ApplyScheduledFault(sim_.now(), ev); });
    }
  }
  sim_.RunUntil(end);
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
  for (const auto& host : state_.hosts) {
    size_t cls = static_cast<size_t>(host->profile_class());
    ++metrics_.hosts_by_class[cls];
    metrics_.host_sleep_seconds_by_class[cls] +=
        host->ledger().TimeInAt(HostPowerState::kSleeping, end).seconds();
  }
  metrics_.faults_injected = fault_.TotalInjected();
  metrics_.faults_recovered = fault_.TotalRecovered();
  for (int c = 0; c < kNumFaultClasses; ++c) {
    FaultClass fault = static_cast<FaultClass>(c);
    metrics_.fault_injected_by_class[c] = fault_.injected(fault);
    metrics_.fault_recovered_by_class[c] = fault_.recovered(fault);
    metrics_.fault_skipped_by_class[c] = fault_.skipped(fault);
  }
  metrics_.events_dispatched = sim_.events_dispatched();
  return metrics_;
}

int ClusterManager::RoundsPerDay() const {
  return static_cast<int>(SimTime::Hours(24.0) / config_.planning_interval);
}

int ClusterManager::TraceIntervalAt(SimTime now) const {
  int round = std::min(RoundsPerDay() - 1, static_cast<int>(now / config_.planning_interval));
  SimTime when = config_.planning_interval * round;
  return std::min(kIntervalsPerDay - 1, static_cast<int>(when.seconds()) / kTraceIntervalSeconds);
}

Joules ClusterManager::BaselineEnergy(const ClusterConfig& config) {
  // Every home host stays powered all day running its own VMs (§5.3's
  // normalization). The draw saturates with the resident VM count, so the
  // baseline is flat regardless of user activity. On a mixed fleet each
  // home is billed at its own generation's loaded draw; the per-class fold
  // reduces to the legacy single product on the homogeneous default.
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

void ClusterManager::OnInterval(SimTime now, int interval) {
  OASIS_CLOG(kDebug, "cluster") << "planning round " << interval;
  UpdateActivities(now, interval);
  act_.PartialVmUpkeep(now);
  PlanAndRecord(now);
}

void ClusterManager::PlanAndRecord(SimTime now) {
  PlanActions actions = strategy_->PlanInterval(View(), now, act_);
  act_.SleepIdleConsolidationHosts(now);
  // Sweep home hosts that drained since the last interval.
  for (const auto& host : state_.hosts) {
    if (host->IsHomeHost()) {
      act_.MaybeSleepHomeHost(now, host->id());
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
  if (obs::Tracer* t = obs::Tracer::IfEnabled()) {
    t->Complete("ctrl", "planning_round", now, now);
    // The strategy's executed-action record is observability-only: it never
    // feeds ClusterMetrics, so enabling it cannot perturb pinned outputs.
    t->Instant("ctrl", "policy_actions", now,
               obs::TraceArgs{static_cast<int64_t>(actions.vacated_hosts),
                              static_cast<int64_t>(actions.vacate_moves),
                              static_cast<int64_t>(actions.drain_moves)});
  }
  if (obs::MetricsRegistry* m = obs::MetricsRegistry::IfEnabled()) {
    m->counter("cluster.planning_rounds")->Increment();
    std::string prefix = std::string("cluster.policy.") + strategy_->name();
    m->counter(prefix + ".vacated_hosts")
        ->Increment(static_cast<uint64_t>(actions.vacated_hosts));
    m->counter(prefix + ".vacate_moves")
        ->Increment(static_cast<uint64_t>(actions.vacate_moves));
    m->counter(prefix + ".drain_moves")
        ->Increment(static_cast<uint64_t>(actions.drain_moves));
    m->counter(prefix + ".swapped_vms")
        ->Increment(static_cast<uint64_t>(actions.swapped_vms));
    m->counter(prefix + ".prewoken_hosts")
        ->Increment(static_cast<uint64_t>(actions.prewoken_hosts));
  }
}

void ClusterManager::UpdateActivities(SimTime now, int interval) {
  // Every vm.activity matches the row of the interval applied last, so the
  // XOR of the two rows names exactly the VMs that flip, visited in
  // ascending id. A round that revisits its interval (planning below 5
  // minutes) flips nothing; one that skips intervals flips straight to its
  // own row.
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
        if (obs::Tracer* t = obs::Tracer::IfEnabled()) {
          t->Instant("ctrl", "vm_activation", now,
                     obs::TraceArgs{static_cast<int64_t>(vm.location),
                                    static_cast<int64_t>(vm.id)});
        }
        act_.HandleActivation(now, vm.id, now);
      } else {
        vm.activity = VmActivity::kIdle;
        vm.idle_since = now;
        act_.AdjustActiveCount(now, vm.location, -1);
      }
    }
  }
}

void ClusterManager::RecordSnapshot(SimTime now) {
  IntervalSnapshot snap;
  snap.time = now;
  // Every VM counts toward exactly one host's active count and exactly one
  // home's residency counts, so per-host sums replace a walk over all VMs.
  for (size_t h = 0; h < state_.hosts.size(); ++h) {
    snap.active_vms += state_.hosts[h]->active_vms();
    snap.partial_vms += state_.partials_homed[h];
    snap.full_at_consolidation_vms += state_.fac_homed[h];
  }
  for (const auto& host : state_.hosts) {
    if (!host->IsPowered()) {
      continue;
    }
    ++snap.powered_hosts;
    if (host->IsHomeHost()) {
      ++snap.powered_home_hosts;
    } else {
      ++snap.powered_consolidation_hosts;
      metrics_.consolidation_ratio.Add(static_cast<double>(host->vms().size()));
    }
  }
  metrics_.timeline.push_back(snap);
}

}  // namespace oasis
