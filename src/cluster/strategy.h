// Pluggable consolidation strategies (the policy layer of the control
// plane; see DESIGN.md, "Control-plane layering").
//
// A strategy decides, once per planning interval, which VMs move where and
// which hosts get to sleep. It reads the cluster only through ClusterView
// and effects every decision through Actuator verbs — it can never touch a
// host or VM slot directly. Every strategy is a pure function of the view:
// it carries no state between intervals (per-interval scratch aside, see
// view.h). Per-host aggregates a scan needs belong in ClusterState,
// maintained by the Actuator and exposed through the view — not in a
// strategy-side cache.
//
// Registered strategies:
//   "oasis-greedy"         — the paper's §3 algorithm (full-to-partial swaps,
//                            power-gated greedy vacate planning, incremental
//                            consolidation-host draining). The default.
//   "first-fit-decreasing" — static bin-packing: sort all trusted-idle
//                            working sets decreasing and first-fit them onto
//                            the consolidation hosts, all-or-nothing per
//                            home, behind the same global power gate.
//   "local-threshold"      — distributed per-host decisions with no global
//                            scan: each fully-idle home independently parks
//                            its group on its statically designated
//                            consolidation host whenever it fits.

#ifndef OASIS_SRC_CLUSTER_STRATEGY_H_
#define OASIS_SRC_CLUSTER_STRATEGY_H_

#include <memory>
#include <string>
#include <vector>

#include "src/cluster/cluster_types.h"
#include "src/cluster/view.h"

namespace oasis {

class Actuator;

// One VM move inside a vacate plan. `as_partial` and `bytes` are decided at
// plan-build time (nothing mutates the cluster between building and
// committing a plan, so the build-time idleness verdict still holds at
// commit): a partial placement reserves `bytes` of sampled working set at
// the destination, a full placement reserves the VM's full footprint.
struct VacatePlacement {
  VmId vm = kNoVm;
  HostId dest = kNoHost;
  bool as_partial = false;
  uint64_t bytes = 0;
};

// A set of home hosts to empty, with a destination for every resident VM
// and the net power effect of executing it (§3.1: consolidate only when it
// saves energy).
struct VacatePlan {
  std::vector<HostId> hosts_to_vacate;
  // Parallel to hosts_to_vacate: the placements for every VM resident there.
  std::vector<std::vector<VacatePlacement>> placements;
  double net_power_delta_watts = 0.0;  // positive means the plan saves power
  int newly_woken_consolidation_hosts = 0;
};

// What a strategy did this interval — the executed-action record returned
// by PlanInterval, used for observability only (never folded into
// ClusterMetrics, so enabling it cannot perturb pinned outputs).
struct PlanActions {
  int swapped_vms = 0;
  int vacated_hosts = 0;
  int vacate_moves = 0;
  int drain_moves = 0;
  double committed_power_delta_watts = 0.0;
};

// Capability flags a strategy declares about itself, consumed by the
// conformance suite (tests/strategy_conformance_test.cpp) to decide which
// registry-wide invariants apply. Defaults describe a gate-respecting
// strategy.
struct StrategyTraits {
  // The strategy only commits vacate plans whose net power delta is
  // positive (§3.1). Conformance asserts such strategies never migrate on
  // a cluster configured so consolidation can't save energy.
  bool has_power_gate = true;
};

// Interface every consolidation strategy implements. PlanInterval runs at
// one simulated instant; the actuator executes verbs immediately, so a
// strategy that plans in several passes observes its own earlier actions
// through the (live) view.
class ConsolidationStrategy {
 public:
  virtual ~ConsolidationStrategy() = default;
  virtual const char* name() const = 0;
  virtual StrategyTraits traits() const { return {}; }
  virtual PlanActions PlanInterval(const ClusterView& view, SimTime now, Actuator& act) = 0;
};

inline constexpr char kDefaultStrategyName[] = "oasis-greedy";

// --- registry ---------------------------------------------------------------
// Every registered strategy name, in registration order.
const std::vector<std::string>& RegisteredStrategyNames();
// The names joined with ", " (for error messages).
std::string RegisteredStrategyNamesJoined();
bool IsRegisteredStrategyName(const std::string& name);
// Instantiates a registered strategy; nullptr for unknown names.
std::unique_ptr<ConsolidationStrategy> MakeStrategy(const std::string& name);

// Applies the OASIS_POLICY environment override to config->strategy_name.
// An unknown name exits 2 through knobs::Reject, listing the registered
// names (mirrors obs::ApplySeedOverride's call-it-from-main pattern; call
// it before constructing managers so per-experiment strategy_name
// assignments made later still win).
void ApplyPolicyOverride(ClusterConfig* config);

// --- factories --------------------------------------------------------------
std::unique_ptr<ConsolidationStrategy> MakeOasisGreedyStrategy();
std::unique_ptr<ConsolidationStrategy> MakeFirstFitDecreasingStrategy();
std::unique_ptr<ConsolidationStrategy> MakeLocalThresholdStrategy();

}  // namespace oasis

#endif  // OASIS_SRC_CLUSTER_STRATEGY_H_
