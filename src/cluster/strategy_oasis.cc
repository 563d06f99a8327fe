#include "src/cluster/strategy_oasis.h"

#include <algorithm>
#include <bit>
#include <span>
#include <utility>
#include <vector>

#include "src/cluster/actuator.h"
#include "src/cluster/power_delta.h"
#include "src/hyper/migration_model.h"

namespace oasis {

PlanActions OasisGreedyStrategy::PlanInterval(const ClusterView& view, SimTime now, Actuator& act) {
  // Each pass reads the live view, so it observes the previous pass's
  // executed actions (and the maintained aggregates they updated).
  PlanActions actions;
  const ConsolidationPolicy policy = view.config().policy;
  if (policy == ConsolidationPolicy::kFullToPartial || policy == ConsolidationPolicy::kNewHome) {
    ExecuteSwapGroups(ComputeSwapGroups(view), now, act, actions);
  }
  std::vector<Candidate> candidates = ScanVacateCandidates(view, vacate_items_);
  MaybeCommitVacatePlan(now, act, actions, BestVacatePlan(view, candidates, vacate_items_));
  actions.drain_moves += ExecuteDrain(view, now, act, SelectDrainSource(view, now));
  return actions;
}

// --- pass 1: FulltoPartial swaps ---------------------------------------------

OasisGreedyStrategy::SwapGroups OasisGreedyStrategy::ComputeSwapGroups(
    const ClusterView& view) const {
  // Idle full VMs parked on consolidation hosts go home and come back as
  // partials, freeing most of their reservation (§3.2 FulltoPartial). Homes
  // with no VM full at a consolidation host are skipped wholesale; VM ids
  // are contiguous per home, so walking homes ascending and the set bits of
  // each home's id range in the full-at-consolidation and trusted-idle
  // bitsets ascending visits candidates in ascending VM id.
  SwapGroups swaps;
  const std::span<const uint64_t> fac_bits = view.fac_vm_bits();
  const std::span<const uint64_t> trusted = view.trusted_idle_bits();
  const size_t vms_per_home = static_cast<size_t>(view.config().vms_per_home);
  const size_t home_words = (vms_per_home + 63) / 64;
  int num_homes = view.config().num_home_hosts;
  for (HostId h = 0; h < static_cast<HostId>(num_homes); ++h) {
    if (view.fac_homed(h) == 0) {
      continue;
    }
    const VmId base = h * static_cast<VmId>(vms_per_home);
    size_t begin = swaps.vms.size();
    for (size_t j = 0; j < home_words; ++j) {
      uint64_t word = view.HomeWord(fac_bits, h, j) & view.HomeWord(trusted, h, j);
      for (; word != 0; word &= word - 1) {
        VmId id = base + static_cast<VmId>(64 * j + static_cast<size_t>(std::countr_zero(word)));
        if (!view.vm(id).migration_in_flight) {
          swaps.vms.push_back(id);
        }
      }
    }
    if (swaps.vms.size() > begin) {
      swaps.groups.push_back({h, begin, swaps.vms.size()});
    }
  }
  return swaps;
}

void OasisGreedyStrategy::ExecuteSwapGroups(const SwapGroups& swaps, SimTime now,
                                            Actuator& act, PlanActions& actions) const {
  for (const SwapGroups::Group& g : swaps.groups) {
    act.FullToPartialSwapGroup(
        now, g.home, std::span<const VmId>(swaps.vms.data() + g.begin, g.end - g.begin));
    actions.swapped_vms += static_cast<int>(g.end - g.begin);
  }
}

// --- pass 2: power-gated vacate planning -------------------------------------

std::vector<OasisGreedyStrategy::Candidate> OasisGreedyStrategy::ScanVacateCandidates(
    const ClusterView& view, std::vector<VacateItem>& items) {
  const ClusterConfig& config = view.config();
  bool only_partial = config.policy == ConsolidationPolicy::kOnlyPartial;
  const uint64_t vm_bytes = config.vm_memory_bytes;
  const std::span<const uint64_t> trusted = view.trusted_idle_bits();
  const std::span<const uint64_t> active = view.active_bits();
  // At most every VM becomes an item. The table keeps a row per VM across
  // intervals (DESIGN.md, "Vacate item table"); the scan writes rows from
  // 0, and rows past the last candidate's are left over and never read.
  if (items.size() < view.num_vms()) {
    items.resize(view.num_vms());
  }
  VacateItem* out = items.data();
  // One home's working-set draws, plus a padding slot: the fill below loads
  // the next draw for every resident, and the home's last full residents
  // load the padding.
  std::vector<uint64_t> draws(static_cast<size_t>(config.vms_per_home) + 1, 0);
  std::vector<Candidate> candidates;
  int num_homes = config.num_home_hosts;
  for (HostId h = 0; h < static_cast<HostId>(num_homes); ++h) {
    const ClusterHost& host = view.host(h);
    // An S3-incapable home can sponsor guests but never sleeps itself, so
    // vacating it frees no power. A home holds only its own VMs, so its
    // resident words and the per-VM bitsets line up word for word
    // (ClusterView::HomeWord).
    if (!host.IsPowered() || !host.HasVms() || !host.s3_capable() ||
        view.inflight_residents(h) > 0) {
      continue;
    }
    // OnlyPartial never migrates VMs in full, so every VM must be (trusted)
    // idle before the host can be emptied.
    if (only_partial && !view.TrustedIdleHome(h)) {
      continue;
    }
    // The trusted-idle residents go as partials, each with one working-set
    // draw in ascending id; the rest go in full.
    const std::span<const uint64_t> resident = host.vms().words();
    size_t partials = 0;
    for (size_t j = 0; j < resident.size(); ++j) {
      partials += static_cast<size_t>(std::popcount(resident[j] & view.HomeWord(trusted, h, j)));
    }
    view.TakeWorkingSets(partials, draws.data());
    uint64_t demand = (host.vms().size() - partials) * vm_bytes;
    for (size_t d = 0; d < partials; ++d) {
      demand += draws[d];
    }
    const uint32_t begin = static_cast<uint32_t>(out - items.data());
    const uint64_t* draw = draws.data();
    const VmId base = h * static_cast<VmId>(config.vms_per_home);
    for (size_t j = 0; j < resident.size(); ++j) {
      const uint64_t trusted_word = view.HomeWord(trusted, h, j);
      const uint64_t active_word = view.HomeWord(active, h, j) & ~trusted_word;
      for (uint64_t word = resident[j]; word != 0; word &= word - 1) {
        const int i = std::countr_zero(word);
        const uint64_t partial = (trusted_word >> i) & 1;
        const uint64_t take = 0 - partial;
        *out++ = {(*draw & take) | (vm_bytes & ~take),
                  base + static_cast<VmId>(64 * j + static_cast<size_t>(i)), partial != 0,
                  ((active_word >> i) & 1) != 0};
        draw += partial;
      }
    }
    candidates.push_back({h, demand, begin, static_cast<uint32_t>(out - items.data())});
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) { return a.demand < b.demand; });
  return candidates;
}

std::vector<OasisGreedyStrategy::Dest> OasisGreedyStrategy::BuildDestTable(
    const ClusterView& view, size_t* powered_dests) {
  // Powered hosts come first so the random destination choice only spills
  // onto sleeping hosts (waking them) when the powered ones are full.
  std::vector<Dest> dests;
  *powered_dests = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t h = 0; h < view.num_hosts(); ++h) {
      const ClusterHost& host = view.host(static_cast<HostId>(h));
      if (!host.IsConsolidationHost()) {
        continue;
      }
      int slots = kMaxActiveVmsPerHost - host.active_vms();
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
                                              const std::vector<VacateItem>& items,
                                              std::vector<Dest> dests, size_t powered_dests) {
  // Destination choice (§3.1): random among powered consolidation hosts
  // with room — one draw per visited item, then a wrap-around probe from
  // the drawn start; spill onto sleeping hosts first-fit in a fixed order so
  // the plan wakes as few of them as possible. Active VMs additionally need
  // a CPU slot (assumption 1's 3x over-subscription cap). Returns the chosen
  // index, or dests.size() when nothing fits.
  // The placement loop draws from a local copy of the planning stream,
  // written back once placement is done: nothing else draws meanwhile, and a
  // local state can stay in registers where the shared one would be reloaded
  // after every store to the destination table.
  Rng rng = view.planning_rng();
  const size_t num_dests = dests.size();
  auto choose = [&](const VacateItem& item) {
    // Bitwise, not short-circuit: items mix active and idle unpredictably,
    // and a branch on each would mispredict.
    auto fits = [&item](const Dest& d) -> bool {
      return (d.available >= item.need) & (!item.active | (d.active_slots > 0));
    };
    if (powered_dests > 0) {
      size_t start = rng.NextBelow(powered_dests);
      for (size_t k = start; k < powered_dests; ++k) {
        if (fits(dests[k])) {
          return k;
        }
      }
      for (size_t k = 0; k < start; ++k) {
        if (fits(dests[k])) {
          return k;
        }
      }
    }
    for (size_t k = powered_dests; k < num_dests; ++k) {
      if (fits(dests[k])) {
        return k;
      }
    }
    return num_dests;
  };

  VacatePlan plan;
  // The destination each of the current candidate's items took, in item
  // order: undoes a candidate that does not fit, names the placements of
  // one that does.
  std::vector<uint32_t> placed_at;
  for (const Candidate& cand : candidates) {
    placed_at.clear();
    for (uint32_t i = cand.begin; i < cand.end; ++i) {
      const VacateItem& item = items[i];
      size_t idx = choose(item);
      if (idx == num_dests) {
        break;
      }
      dests[idx].available -= item.need;
      dests[idx].active_slots -= item.active ? 1 : 0;
      placed_at.push_back(static_cast<uint32_t>(idx));
    }
    if (placed_at.size() < cand.end - cand.begin) {
      for (size_t k = 0; k < placed_at.size(); ++k) {
        const VacateItem& item = items[cand.begin + k];
        dests[placed_at[k]].available += item.need;
        dests[placed_at[k]].active_slots += item.active ? 1 : 0;
      }
      continue;
    }
    std::vector<VacatePlacement> placement;
    placement.reserve(placed_at.size());
    for (size_t k = 0; k < placed_at.size(); ++k) {
      const VacateItem& item = items[cand.begin + k];
      Dest& d = dests[placed_at[k]];
      d.used = true;
      placement.push_back({item.vm, d.host, item.as_partial, item.need});
    }
    plan.hosts_to_vacate.push_back(cand.host);
    plan.placements.push_back(std::move(placement));
  }
  view.planning_rng() = rng;

  // Net power effect (§3.1: consolidate only when it saves energy), priced
  // per host profile: a vacated home stops drawing its *own* loaded power
  // and costs its own S3 draw plus the memory server; every sleeping
  // consolidation host we wake runs loaded at its own curve. The fold
  // buckets by profile class (power_delta.h).
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
                                               const std::vector<VacateItem>& items) {
  // No candidates: both variants would place nothing and draw nothing, and
  // the power gate rejects an empty plan, so the empty plan is exact.
  if (candidates.empty()) {
    return VacatePlan{};
  }
  size_t powered_dests = 0;
  std::vector<Dest> dests = BuildDestTable(view, &powered_dests);
  std::vector<Dest> conservative_dests(dests.begin(),
                                       dests.begin() + static_cast<long>(powered_dests));
  VacatePlan conservative =
      PlaceAndPrice(view, candidates, items, std::move(conservative_dests), powered_dests);
  VacatePlan aggressive = PlaceAndPrice(view, candidates, items, std::move(dests), powered_dests);
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
  size_t max_moves = static_cast<size_t>(config.planning_interval.seconds() /
                                         kPartialMigrationTime.seconds());
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
      if (host.id() != source_id && host.IsPowered() && host.CanFit(view.ws_bytes(vm))) {
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
