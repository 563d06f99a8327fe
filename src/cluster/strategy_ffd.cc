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
#include <cstdint>
#include <numeric>
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
    // nothing by being packed away), occupied, no resident in flight and
    // every resident trusted-idle. Sample each VM's working set in
    // deterministic order (homes by id, residents in set order) as we go, so
    // the items of each home sit together in its vms() order.
    constexpr size_t kUnplaced = SIZE_MAX;
    struct Item {
      VmId vm;
      size_t home;  // index into `homes`
      uint64_t ws;
      size_t bin = kUnplaced;  // index into `bins` once packed
    };
    std::vector<HostId> homes;
    std::vector<Item> items;
    for (size_t h = 0; h < view.num_hosts(); ++h) {
      const ClusterHost& host = view.host(static_cast<HostId>(h));
      if (!host.IsHomeHost() || !host.IsPowered() || !host.HasVms() || !host.s3_capable() ||
          view.inflight_residents(host.id()) > 0 || !view.TrustedIdleHome(host.id())) {
        continue;
      }
      for (VmId id : host.vms()) {
        items.push_back({id, homes.size(), view.SampleWorkingSet()});
      }
      homes.push_back(host.id());
    }
    if (homes.empty()) {
      return actions;
    }
    std::vector<size_t> by_size(items.size());
    std::iota(by_size.begin(), by_size.end(), size_t{0});
    std::sort(by_size.begin(), by_size.end(), [&items](size_t a, size_t b) {
      return items[a].ws != items[b].ws ? items[a].ws > items[b].ws
                                        : items[a].vm < items[b].vm;
    });

    // Bins: consolidation hosts in id order with their live free space.
    // Every item is idle, so CPU slots never constrain the packing.
    struct Bin {
      HostId host;
      uint64_t available;
      bool sleeping;
      bool woken_by_survivor = false;
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

    std::vector<bool> home_complete(homes.size(), true);
    for (size_t i : by_size) {
      Item& item = items[i];
      for (size_t b = 0; b < bins.size() && item.bin == kUnplaced; ++b) {
        if (bins[b].available >= item.ws) {
          bins[b].available -= item.ws;
          item.bin = b;
        }
      }
      if (item.bin == kUnplaced) {
        home_complete[item.home] = false;
      }
    }

    // Assemble the surviving (fully placed) homes, and mark which bins the
    // survivors actually wake: a bin used only by dropped homes costs
    // nothing.
    VacatePlan plan;
    for (const Item& item : items) {
      if (!home_complete[item.home]) {
        continue;
      }
      if (plan.hosts_to_vacate.empty() || plan.hosts_to_vacate.back() != homes[item.home]) {
        plan.hosts_to_vacate.push_back(homes[item.home]);
        plan.placements.emplace_back();
      }
      Bin& bin = bins[item.bin];
      plan.placements.back().push_back({item.vm, bin.host, /*as_partial=*/true, item.ws});
      bin.woken_by_survivor |= bin.sleeping;
    }

    // The same §3.1 gate as the greedy strategy, priced per host profile:
    // commit only when the plan saves power net of the consolidation hosts
    // it wakes (power_delta.h keeps the homogeneous fold bit-identical to
    // the old single-profile arithmetic).
    power_delta::DeltaAccumulator delta(view);
    for (HostId home : plan.hosts_to_vacate) {
      delta.AddVacatedHome(home);
    }
    for (const Bin& bin : bins) {
      if (bin.woken_by_survivor) {
        delta.AddWokenConsolidationHost(bin.host);
      }
    }
    plan.newly_woken_consolidation_hosts = delta.total_woken();
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
