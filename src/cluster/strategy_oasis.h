// The paper's §3 consolidation algorithm as a pluggable strategy (the
// "oasis-greedy" registry entry, and the default).
//
// The planning passes run in the legacy monolithic manager's exact order —
// FulltoPartial swaps, power-gated vacate planning, incremental draining —
// and draw from the shared planning streams at the exact same points, so a
// run under this strategy is byte-identical to the pre-refactor manager.
//
// Every pass scans the live ClusterView. The per-host questions the scans
// ask ("is any resident in flight?", "are all residents partial?", "is any
// VM homed here parked in full on a consolidation host?") are O(1) reads of
// the aggregates ClusterState maintains (DESIGN.md, "Maintained
// aggregates"), so a pass walks only the residents of hosts it may act on.
//
// The class is exposed (rather than hidden behind its factory) so tests can
// drive the vacate planner's pieces directly against a manager's view and
// assert on the power-delta gate without running a whole day.

#ifndef OASIS_SRC_CLUSTER_STRATEGY_OASIS_H_
#define OASIS_SRC_CLUSTER_STRATEGY_OASIS_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/cluster/strategy.h"

namespace oasis {

class OasisGreedyStrategy : public ConsolidationStrategy {
 public:
  const char* name() const override { return kDefaultStrategyName; }
  PlanActions PlanInterval(const ClusterView& view, SimTime now, Actuator& act) override;

  // --- the vacate planner's building blocks (pass 2) ----------------------
  struct Candidate {
    HostId host;
    uint64_t demand;
  };
  struct Dest {
    HostId host;
    uint64_t available;
    int active_slots;  // CPU headroom for incoming active VMs
    bool sleeping;
    bool used = false;
  };

  // The vacate candidates by ascending total memory demand (§3.1): every
  // powered, S3-capable home holding VMs, none of them in flight (and under
  // OnlyPartial all of them trusted idle). Eligible homes are visited in
  // ascending id and their residents in ascending VM id, and each
  // trusted-idle resident draws one working-set sample into `planned_ws`
  // (indexed by VM id, zero for everyone else) — the draw order every pinned
  // output depends on.
  static std::vector<Candidate> ScanVacateCandidates(const ClusterView& view, SimTime now,
                                                     std::vector<uint64_t>& planned_ws);
  // The destination table over consolidation hosts: awake (powered or
  // resuming) ones first, `*powered_dests` of them, then sleeping ones.
  static std::vector<Dest> BuildDestTable(const ClusterView& view, size_t* powered_dests);
  // Places the demand-sorted candidates onto a scratch copy of the
  // destination table — random among the powered prefix, first-fit spill
  // onto sleeping hosts — and prices the plan's §3.1 net power delta. This
  // is the only part of pass 2 that draws from the planning rng. A nonzero
  // planned_ws[vm] places that VM as a partial with that working set.
  static VacatePlan PlaceAndPrice(const ClusterView& view,
                                  const std::vector<Candidate>& candidates,
                                  std::vector<Dest> dests, size_t powered_dests,
                                  const std::vector<uint64_t>& planned_ws);

 protected:
  // Prices the candidates twice — conservatively on the awake hosts only,
  // aggressively allowing sleeping ones to be woken — and returns the plan
  // that saves more (the conservative one on ties).
  static VacatePlan BestVacatePlan(const ClusterView& view,
                                   const std::vector<Candidate>& candidates,
                                   const std::vector<uint64_t>& planned_ws);
  void MaybeCommitVacatePlan(SimTime now, Actuator& act, PlanActions& actions,
                             const VacatePlan& best) const;

 private:
  // Pass 1 decisions: (home, swap group) pairs in ascending home order.
  using SwapGroups = std::vector<std::pair<HostId, std::vector<VmId>>>;

  SwapGroups ComputeSwapGroups(const ClusterView& view, SimTime now) const;
  void ExecuteSwapGroups(const SwapGroups& groups, SimTime now, Actuator& act,
                         PlanActions& actions) const;
  HostId SelectDrainSource(const ClusterView& view, SimTime now) const;
  // Executes the incremental drain from `source_id` (kNoHost = nothing to
  // drain): the completion-feasibility gate plus the per-VM moves, whose
  // destination scans stay live because each move mutates the cluster.
  int ExecuteDrain(const ClusterView& view, SimTime now, Actuator& act,
                   HostId source_id) const;

  // Per-interval scratch for ScanVacateCandidates (kept only to reuse the
  // allocation; every interval overwrites it whole before reading it).
  std::vector<uint64_t> planned_ws_;
};

}  // namespace oasis

#endif  // OASIS_SRC_CLUSTER_STRATEGY_OASIS_H_
