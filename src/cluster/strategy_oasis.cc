#include "src/cluster/strategy_oasis.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "src/cluster/actuator.h"
#include "src/cluster/power_delta.h"

namespace oasis {

PlanActions OasisGreedyStrategy::PlanInterval(const ClusterView& view, SimTime now,
                                              Actuator& act) {
  // Each pass reads the live view, so it observes the previous pass's
  // executed actions (and the maintained aggregates they updated).
  PlanActions actions;
  const ConsolidationPolicy policy = view.config().policy;
  if (policy == ConsolidationPolicy::kFullToPartial || policy == ConsolidationPolicy::kNewHome) {
    ExecuteSwapGroups(ComputeSwapGroups(view, now), now, act, actions);
  }
  std::vector<Candidate> candidates = ScanVacateCandidates(view, now, planned_ws_);
  MaybeCommitVacatePlan(now, act, actions, BestVacatePlan(view, candidates, planned_ws_));
  actions.drain_moves += ExecuteDrain(view, now, act, SelectDrainSource(view, now));
  return actions;
}

// --- pass 1: FulltoPartial swaps ---------------------------------------------

OasisGreedyStrategy::SwapGroups OasisGreedyStrategy::ComputeSwapGroups(
    const ClusterView& view, SimTime now) const {
  // Idle full VMs parked on consolidation hosts go home and come back as
  // partials, freeing most of their reservation (§3.2 FulltoPartial). Homes
  // with no VM full at a consolidation host are skipped wholesale; VM ids
  // are contiguous per home, so walking homes ascending and each home's VMs
  // ascending visits candidates in ascending VM id.
  SwapGroups groups;
  int num_homes = view.config().num_home_hosts;
  for (HostId h = 0; h < static_cast<HostId>(num_homes); ++h) {
    if (view.fac_homed(h) == 0) {
      continue;
    }
    std::vector<VmId> group;
    for (VmId id : view.vms_of_home(h)) {
      const VmSlot& vm = view.vm(id);
      if (vm.residency == VmResidency::kFullAtConsolidation && view.TrustedIdle(vm, now) &&
          !vm.migration_in_flight) {
        group.push_back(id);
      }
    }
    if (!group.empty()) {
      groups.emplace_back(h, std::move(group));
    }
  }
  return groups;
}

void OasisGreedyStrategy::ExecuteSwapGroups(const SwapGroups& groups, SimTime now,
                                            Actuator& act, PlanActions& actions) const {
  for (const auto& [home_id, group] : groups) {
    act.FullToPartialSwapGroup(now, home_id, group);
    ++actions.full_to_partial_swap_groups;
    actions.swapped_vms += static_cast<int>(group.size());
  }
}

// --- pass 2: power-gated vacate planning -------------------------------------

std::vector<OasisGreedyStrategy::Candidate> OasisGreedyStrategy::ScanVacateCandidates(
    const ClusterView& view, SimTime now, std::vector<uint64_t>& planned_ws) {
  const ClusterConfig& config = view.config();
  bool only_partial = config.policy == ConsolidationPolicy::kOnlyPartial;
  auto trusted_idle = [&view, now](VmId id) { return view.TrustedIdle(view.vm(id), now); };
  planned_ws.assign(view.num_vms(), 0);
  std::vector<Candidate> candidates;
  int num_homes = config.num_home_hosts;
  for (HostId h = 0; h < static_cast<HostId>(num_homes); ++h) {
    const ClusterHost& host = view.host(h);
    // An S3-incapable home can sponsor guests but never sleeps itself, so
    // vacating it frees no power. Residents of a home are at that home by
    // invariant (cluster.location_matches_residency).
    if (!host.IsPowered() || !host.HasVms() || !host.s3_capable() ||
        view.inflight_residents(h) > 0) {
      continue;
    }
    // OnlyPartial never migrates VMs in full, so every VM must be (trusted)
    // idle before the host can be emptied.
    if (only_partial && !std::all_of(host.vms().begin(), host.vms().end(), trusted_idle)) {
      continue;
    }
    uint64_t demand = 0;
    for (VmId id : host.vms()) {
      const VmSlot& vm = view.vm(id);
      if (view.TrustedIdle(vm, now)) {
        uint64_t ws = view.SampleWorkingSet();
        planned_ws[id] = ws;
        demand += ws;
      } else {
        demand += vm.full_bytes;
      }
    }
    candidates.push_back({h, demand});
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) { return a.demand < b.demand; });
  return candidates;
}

std::vector<OasisGreedyStrategy::Dest> OasisGreedyStrategy::BuildDestTable(
    const ClusterView& view, size_t* powered_dests) {
  // Powered hosts come first so the random destination choice only spills
  // onto sleeping hosts (waking them) when the powered ones are full.
  const ClusterConfig& config = view.config();
  std::vector<Dest> dests;
  *powered_dests = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t h = 0; h < view.num_hosts(); ++h) {
      const ClusterHost& host = view.host(static_cast<HostId>(h));
      if (!host.IsConsolidationHost()) {
        continue;
      }
      int slots = config.MaxActiveVmsPerHost() - host.active_vms();
      bool awake = host.IsPowered() || host.power_state() == HostPowerState::kResuming;
      if (pass == 0 && awake) {
        dests.push_back({host.id(), host.AvailableBytes(), slots, false});
        ++*powered_dests;
      } else if (pass == 1 && !awake) {
        dests.push_back({host.id(), host.AvailableBytes(), slots, true});
      }
    }
  }
  return dests;
}

VacatePlan OasisGreedyStrategy::PlaceAndPrice(const ClusterView& view,
                                              const std::vector<Candidate>& candidates,
                                              std::vector<Dest> dests, size_t powered_dests,
                                              const std::vector<uint64_t>& planned_ws) {
  VacatePlan plan;
  for (const Candidate& cand : candidates) {
    const ClusterHost& host = view.host(cand.host);
    std::vector<VacatePlacement> placement;
    struct Tentative {
      size_t idx;
      uint64_t bytes;
      bool active;
    };
    std::vector<Tentative> tentative;
    bool ok = true;
    for (VmId id : host.vms()) {
      const VmSlot& vm = view.vm(id);
      bool consumes_cpu = vm.activity == VmActivity::kActive;
      // A nonzero planned working set marks the VM for partial placement.
      // Callers populate the table for exactly the VMs they intend to park
      // as partials (greedy: trusted-idle residents; the predictive
      // pre-drain: any currently idle resident), and samples are floored
      // well above zero, so the encoding is unambiguous.
      bool as_partial = planned_ws[id] != 0;
      uint64_t need = as_partial ? planned_ws[id] : vm.full_bytes;
      // Destination choice (§3.1): random among powered consolidation hosts
      // with room; spill onto sleeping hosts first-fit in a fixed order so
      // the plan wakes as few of them as possible. Active VMs additionally
      // need a CPU slot (assumption 1's 3x over-subscription cap).
      bool placed = false;
      auto try_segment = [&](size_t first, size_t count, bool randomize) {
        if (count == 0 || placed) {
          return;
        }
        size_t start = randomize ? first + view.planning_rng().NextBelow(count) : first;
        for (size_t k = 0; k < count; ++k) {
          size_t idx = first + (start - first + k) % count;
          Dest& d = dests[idx];
          if (d.available >= need && (!consumes_cpu || d.active_slots > 0)) {
            d.available -= need;
            if (consumes_cpu) {
              --d.active_slots;
            }
            tentative.push_back({idx, need, consumes_cpu});
            placement.push_back({id, d.host, as_partial, need});
            placed = true;
            return;
          }
        }
      };
      try_segment(0, powered_dests, /*randomize=*/true);
      try_segment(powered_dests, dests.size() - powered_dests, /*randomize=*/false);
      if (!placed) {
        ok = false;
        break;
      }
    }
    if (!ok) {
      for (const Tentative& t : tentative) {
        dests[t.idx].available += t.bytes;
        if (t.active) {
          ++dests[t.idx].active_slots;
        }
      }
      continue;
    }
    for (const Tentative& t : tentative) {
      dests[t.idx].used = true;
    }
    plan.hosts_to_vacate.push_back(cand.host);
    plan.placements.push_back(std::move(placement));
  }

  // Net power effect (§3.1: consolidate only when it saves energy), priced
  // per host profile: a vacated home stops drawing its *own* loaded power
  // and costs its own S3 draw plus the memory server; every sleeping
  // consolidation host we wake runs loaded at its own curve. The fold
  // buckets by profile class (power_delta.h), so the homogeneous default
  // reproduces the legacy single-profile arithmetic bit for bit.
  power_delta::DeltaAccumulator delta(view);
  for (HostId home : plan.hosts_to_vacate) {
    delta.AddVacatedHome(home);
  }
  for (const Dest& d : dests) {
    if (d.sleeping && d.used) {
      delta.AddWokenConsolidationHost(d.host);
    }
  }
  plan.newly_woken_consolidation_hosts = delta.total_woken();
  plan.net_power_delta_watts = delta.NetWatts();
  return plan;
}

VacatePlan OasisGreedyStrategy::BestVacatePlan(const ClusterView& view,
                                               const std::vector<Candidate>& candidates,
                                               const std::vector<uint64_t>& planned_ws) {
  // No candidates: both variants would place nothing and draw nothing, and
  // the power gate rejects an empty plan, so the empty plan is exact.
  if (candidates.empty()) {
    return VacatePlan{};
  }
  size_t powered_dests = 0;
  std::vector<Dest> dests = BuildDestTable(view, &powered_dests);
  std::vector<Dest> conservative_dests(dests.begin(),
                                       dests.begin() + static_cast<long>(powered_dests));
  VacatePlan conservative = PlaceAndPrice(view, candidates, std::move(conservative_dests),
                                          powered_dests, planned_ws);
  VacatePlan aggressive =
      PlaceAndPrice(view, candidates, std::move(dests), powered_dests, planned_ws);
  if (aggressive.net_power_delta_watts > conservative.net_power_delta_watts) {
    return aggressive;
  }
  return conservative;
}

void OasisGreedyStrategy::MaybeCommitVacatePlan(SimTime now, Actuator& act,
                                                PlanActions& actions,
                                                const VacatePlan& best) const {
  // §3.1: consolidate only when it saves energy.
  if (best.net_power_delta_watts <= 0.0 || best.hosts_to_vacate.empty()) {
    return;
  }
  act.CommitVacatePlan(now, best);
  actions.vacated_hosts += static_cast<int>(best.hosts_to_vacate.size());
  for (const auto& placements : best.placements) {
    actions.vacate_moves += static_cast<int>(placements.size());
  }
  actions.committed_power_delta_watts += best.net_power_delta_watts;
}

// --- pass 3: consolidation-host draining -------------------------------------

HostId OasisGreedyStrategy::SelectDrainSource(const ClusterView& view, SimTime now) const {
  // The drain source: the least-occupied powered consolidation host whose
  // guests are all partial and none in flight, ties to the lowest id.
  HostId source_id = kNoHost;
  uint64_t best_reserved = 0;
  for (size_t h = 0; h < view.num_hosts(); ++h) {
    const ClusterHost& host = view.host(static_cast<HostId>(h));
    if (!host.IsConsolidationHost() || !host.IsPowered() || !host.HasVms() ||
        host.outbound_busy_until() > now) {
      continue;
    }
    if (view.inflight_residents(host.id()) > 0 ||
        view.partial_residents(host.id()) != static_cast<int>(host.vms().size())) {
      continue;
    }
    if (source_id == kNoHost || host.reserved_bytes() < best_reserved) {
      source_id = host.id();
      best_reserved = host.reserved_bytes();
    }
  }
  return source_id;
}

int OasisGreedyStrategy::ExecuteDrain(const ClusterView& view, SimTime now, Actuator& act,
                                      HostId source_id) const {
  // §3.1's plan search minimizes the number of powered hosts, which includes
  // consolidation hosts: one whose guests are all partial VMs can push them
  // to its powered peers and sleep. Only descriptors and resident pages
  // move — the VMs' memory images stay on their homes' memory servers.
  //
  // Draining is incremental: each interval moves at most as many VMs as fit
  // into the interval (the moves serialize on the source's outbound path),
  // so a heavily loaded host empties over several intervals. Destination
  // scans stay live — each move mutates the cluster — and walk the
  // consolidation tail in id order, as the full-table scans did.
  if (source_id == kNoHost) {
    return 0;
  }
  const ClusterConfig& config = view.config();
  const ClusterTimings& t = config.timings;
  size_t max_moves = static_cast<size_t>(config.planning_interval.seconds() /
                                         t.partial_migration.seconds());
  const ClusterHost& source = view.host(source_id);
  size_t first_cons = static_cast<size_t>(config.num_home_hosts);
  uint64_t peer_spare = 0;
  for (size_t h = first_cons; h < view.num_hosts(); ++h) {
    const ClusterHost& host = view.host(static_cast<HostId>(h));
    if (host.id() != source_id && host.IsPowered()) {
      peer_spare += host.AvailableBytes();
    }
  }
  // Don't start (or continue) a drain that cannot complete; partially
  // drained hosts still burn full power.
  if (peer_spare < source.reserved_bytes() + source.reserved_bytes() / 8) {
    return 0;
  }

  std::vector<VmId> movable(source.vms().begin(), source.vms().end());
  size_t moved = 0;
  for (VmId vm_id : movable) {
    if (moved >= max_moves) {
      break;
    }
    const VmSlot& vm = view.vm(vm_id);
    HostId dest_id = kNoHost;
    for (size_t h = first_cons; h < view.num_hosts(); ++h) {
      const ClusterHost& host = view.host(static_cast<HostId>(h));
      if (host.id() != source_id && host.IsPowered() && host.CanFit(vm.ws_bytes)) {
        dest_id = host.id();
        break;
      }
    }
    if (dest_id == kNoHost) {
      break;
    }
    act.DrainMove(now, vm_id, dest_id);
    ++moved;
  }
  // The emptied host sleeps at the next sweep once its channel drains.
  return static_cast<int>(moved);
}

std::unique_ptr<ConsolidationStrategy> MakeOasisGreedyStrategy() {
  return std::make_unique<OasisGreedyStrategy>();
}

}  // namespace oasis
