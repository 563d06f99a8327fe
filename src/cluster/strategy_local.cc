// "local-threshold": fully distributed consolidation, for ablation against
// the paper's global greedy scan.
//
// Each home host decides alone, from its own state only: when every one of
// its residents has been trusted-idle for the smoothing window, it parks the
// whole group on its statically designated consolidation host (home h maps
// to consolidation host h mod N — no global view, no load balancing) as
// partial VMs, provided the group fits there right now.
//
// The deliberate weakness, documented in DESIGN.md: a single host cannot
// amortize wake costs across peers, so there is no net-power gate — waking
// the designated consolidation host for one home can cost more than the
// sleeping home saves. The plan's net_power_delta_watts is still reported
// honestly so the ablation can show exactly where the local decisions lose
// energy to the global ones.

#include <vector>

#include "src/cluster/actuator.h"
#include "src/cluster/power_delta.h"
#include "src/cluster/strategy.h"

namespace oasis {
namespace {

class LocalThresholdStrategy : public ConsolidationStrategy {
 public:
  const char* name() const override { return "local-threshold"; }
  // Commits any plan that fits, even a power-losing one — no §3.1 gate.
  StrategyTraits traits() const override { return {/*has_power_gate=*/false}; }

  PlanActions PlanInterval(const ClusterView& view, SimTime now, Actuator& act) override {
    PlanActions actions;
    const ClusterConfig& config = view.config();
    std::vector<HostId> cons_ids;
    for (size_t h = 0; h < view.num_hosts(); ++h) {
      const ClusterHost& host = view.host(static_cast<HostId>(h));
      if (host.IsConsolidationHost()) {
        cons_ids.push_back(host.id());
      }
    }
    if (cons_ids.empty()) {
      return actions;
    }
    const Watts ms_watts = config.memory_server_power.TotalWatts();

    int home_index = -1;
    for (size_t h = 0; h < view.num_hosts(); ++h) {
      const ClusterHost& host = view.host(static_cast<HostId>(h));
      if (!host.IsHomeHost()) {
        continue;
      }
      ++home_index;
      // The s3 gate rides after ++home_index so skipping an S3-incapable
      // home (it can never sleep, so parking its VMs frees nothing) does
      // not shift the static home -> consolidation-host mapping.
      if (!host.IsPowered() || !host.HasVms() || !host.s3_capable() ||
          view.inflight_residents(host.id()) > 0 || !view.TrustedIdleHome(host.id())) {
        continue;
      }
      const ClusterHost& dest =
          view.host(cons_ids[static_cast<size_t>(home_index) % cons_ids.size()]);
      // Sample before the fit check so the draw sequence depends only on
      // which homes are fully idle, not on the destination's state.
      // Every resident is trusted idle, so the home takes one draw per
      // resident, in resident order, in one bulk take.
      std::vector<uint64_t> draws(host.vms().size());
      view.TakeWorkingSets(draws.size(), draws.data());
      std::vector<VacatePlacement> placements;
      placements.reserve(draws.size());
      uint64_t total = 0;
      const uint64_t* ws = draws.data();
      for (VmId id : host.vms()) {
        placements.push_back({id, dest.id(), /*as_partial=*/true, *ws});
        total += *ws++;
      }
      if (total > dest.AvailableBytes()) {
        continue;
      }
      bool wakes_dest =
          !(dest.IsPowered() || dest.power_state() == HostPowerState::kResuming);
      VacatePlan plan;
      plan.hosts_to_vacate.push_back(host.id());
      plan.placements.push_back(std::move(placements));
      plan.newly_woken_consolidation_hosts = wakes_dest ? 1 : 0;
      // Priced from the two hosts actually involved: this home's own saving
      // and this destination's own wake cost (heterogeneous fleets).
      plan.net_power_delta_watts =
          power_delta::SavedPerHome(host.power_profile(), host.s3_capable(),
                                    config.vms_per_home, ms_watts) -
          (wakes_dest
               ? power_delta::WakeCostWatts(dest.power_profile(), config.vms_per_home)
               : 0.0);
      act.CommitVacatePlan(now, plan);
      ++actions.vacated_hosts;
      actions.vacate_moves += static_cast<int>(plan.placements[0].size());
      actions.committed_power_delta_watts += plan.net_power_delta_watts;
    }
    return actions;
  }
};

}  // namespace

std::unique_ptr<ConsolidationStrategy> MakeLocalThresholdStrategy() {
  return std::make_unique<LocalThresholdStrategy>();
}

}  // namespace oasis
