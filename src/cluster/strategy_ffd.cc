// "first-fit-decreasing": classic static bin-packing as a consolidation
// policy, for ablation against the paper's greedy algorithm.
//
// Once per interval it gathers every home whose VMs are ALL trusted-idle
// (it never migrates a VM in full, like OnlyPartial), sorts the sampled
// working sets of all their VMs decreasing, and first-fits them onto the
// consolidation hosts in id order. Packing is all-or-nothing per home: a
// home with any unplaceable VM is dropped from the plan. Dropped homes'
// bin space is deliberately not refunded — this is a single-pass packer,
// and under-counting free space only makes the surviving placements more
// feasible, never less. The whole plan then stands behind the same §3.1
// net-power gate the greedy strategy uses.
//
// It performs no full-to-partial swaps and no draining, so compared with
// "oasis-greedy" it consolidates less often but with tighter packings.

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "src/cluster/actuator.h"
#include "src/cluster/power_delta.h"
#include "src/cluster/strategy.h"

namespace oasis {
namespace {

class FirstFitDecreasingStrategy : public ConsolidationStrategy {
 public:
  const char* name() const override { return "first-fit-decreasing"; }

  PlanActions PlanInterval(const ClusterView& view, SimTime now, Actuator& act) override {
    PlanActions actions;

    // Eligible homes: powered, S3-capable (a home that cannot sleep saves
    // nothing by being packed away), occupied, every resident settled here
    // and trusted-idle. Sample each VM's working set in deterministic order
    // (homes by id, residents in set order) as we go.
    struct Item {
      VmId vm;
      HostId home;
      uint64_t ws;
    };
    std::vector<HostId> homes;
    std::vector<Item> items;
    for (size_t h = 0; h < view.num_hosts(); ++h) {
      const ClusterHost& host = view.host(static_cast<HostId>(h));
      if (!host.IsHomeHost() || !host.IsPowered() || !host.HasVms() ||
          !host.s3_capable()) {
        continue;
      }
      bool eligible = true;
      for (VmId id : host.vms()) {
        const VmSlot& vm = view.vm(id);
        if (vm.migration_in_flight || vm.location != host.id() ||
            !view.TrustedIdle(vm, now)) {
          eligible = false;
          break;
        }
      }
      if (!eligible) {
        continue;
      }
      homes.push_back(host.id());
      for (VmId id : host.vms()) {
        items.push_back({id, host.id(), view.SampleWorkingSet()});
      }
    }
    if (homes.empty()) {
      return actions;
    }
    std::sort(items.begin(), items.end(), [](const Item& a, const Item& b) {
      return a.ws != b.ws ? a.ws > b.ws : a.vm < b.vm;
    });

    // Bins: consolidation hosts in id order with their live free space.
    // Every item is idle, so CPU slots never constrain the packing.
    struct Bin {
      HostId host;
      uint64_t available;
      bool sleeping;
      bool used = false;
    };
    std::vector<Bin> bins;
    for (size_t h = 0; h < view.num_hosts(); ++h) {
      const ClusterHost& host = view.host(static_cast<HostId>(h));
      if (!host.IsConsolidationHost()) {
        continue;
      }
      bool awake = host.IsPowered() || host.power_state() == HostPowerState::kResuming;
      bins.push_back({host.id(), host.AvailableBytes(), !awake});
    }

    std::unordered_map<VmId, HostId> dest_of;
    std::unordered_map<HostId, bool> home_complete;
    for (HostId home : homes) {
      home_complete[home] = true;
    }
    for (const Item& item : items) {
      bool placed = false;
      for (Bin& bin : bins) {
        if (bin.available >= item.ws) {
          bin.available -= item.ws;
          bin.used = true;
          dest_of[item.vm] = bin.host;
          placed = true;
          break;
        }
      }
      if (!placed) {
        home_complete[item.home] = false;
      }
    }

    // Assemble the surviving (fully placed) homes, then re-derive which bins
    // the survivors actually wake: a bin used only by dropped homes costs
    // nothing.
    VacatePlan plan;
    std::unordered_map<HostId, bool> bin_woken_by_survivor;
    for (HostId home : homes) {
      if (!home_complete[home]) {
        continue;
      }
      std::vector<VacatePlacement> placements;
      for (VmId id : view.host(home).vms()) {
        auto it = dest_of.find(id);
        if (it == dest_of.end()) {
          continue;  // packed before its home was dropped; unreachable here
        }
        placements.push_back({id, it->second, /*as_partial=*/true,
                              /*bytes=*/0});
      }
      plan.hosts_to_vacate.push_back(home);
      plan.placements.push_back(std::move(placements));
    }
    // Fill in the sampled bytes (the item list, not the placement walk,
    // holds them) and count woken bins among surviving destinations.
    std::unordered_map<VmId, uint64_t> ws_of;
    for (const Item& item : items) {
      ws_of[item.vm] = item.ws;
    }
    for (auto& placements : plan.placements) {
      for (VacatePlacement& p : placements) {
        p.bytes = ws_of.at(p.vm);
        for (const Bin& bin : bins) {
          if (bin.host == p.dest && bin.sleeping) {
            bin_woken_by_survivor[p.dest] = true;
          }
        }
      }
    }
    plan.newly_woken_consolidation_hosts =
        static_cast<int>(bin_woken_by_survivor.size());

    // The same §3.1 gate as the greedy strategy, priced per host profile:
    // commit only when the plan saves power net of the consolidation hosts
    // it wakes (power_delta.h keeps the homogeneous fold bit-identical to
    // the old single-profile arithmetic).
    power_delta::DeltaAccumulator delta(view);
    for (HostId home : plan.hosts_to_vacate) {
      delta.AddVacatedHome(home);
    }
    for (const auto& woken : bin_woken_by_survivor) {
      delta.AddWokenConsolidationHost(woken.first);
    }
    plan.net_power_delta_watts = delta.NetWatts();
    if (plan.net_power_delta_watts <= 0.0 || plan.hosts_to_vacate.empty()) {
      return actions;
    }
    act.CommitVacatePlan(now, plan);
    actions.vacated_hosts += static_cast<int>(plan.hosts_to_vacate.size());
    for (const auto& placements : plan.placements) {
      actions.vacate_moves += static_cast<int>(placements.size());
    }
    actions.committed_power_delta_watts += plan.net_power_delta_watts;
    return actions;
  }
};

}  // namespace

std::unique_ptr<ConsolidationStrategy> MakeFirstFitDecreasingStrategy() {
  return std::make_unique<FirstFitDecreasingStrategy>();
}

}  // namespace oasis
