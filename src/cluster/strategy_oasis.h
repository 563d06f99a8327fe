// The paper's §3 consolidation algorithm as a pluggable strategy (the
// "oasis-greedy" registry entry, and the default).
//
// The planning passes run in a fixed order — FulltoPartial swaps,
// power-gated vacate planning, incremental draining — and draw from the
// shared planning streams at fixed points; that draw order is observable in
// every pinned output.
//
// Every pass scans the live ClusterView. The per-host questions the scans
// ask ("is any resident in flight?", "are all residents partial?", "is any
// VM homed here parked in full on a consolidation host?") are O(1) reads of
// the aggregates ClusterState maintains (DESIGN.md, "Maintained
// aggregates"), so a pass walks only the residents of hosts it may act on;
// the swap pass walks only the set bits of the full-at-consolidation VM
// bitset, and the vacate placement streams a flat item table (DESIGN.md,
// "Vacate item table").
//
// The class is exposed (rather than hidden behind its factory) so tests can
// drive the vacate planner's pieces directly against a manager's view and
// assert on the power-delta gate without running a whole day.

#ifndef OASIS_SRC_CLUSTER_STRATEGY_OASIS_H_
#define OASIS_SRC_CLUSTER_STRATEGY_OASIS_H_

#include <cstdint>
#include <vector>

#include "src/cluster/strategy.h"

namespace oasis {

class OasisGreedyStrategy final : public ConsolidationStrategy {
 public:
  const char* name() const override { return kDefaultStrategyName; }
  PlanActions PlanInterval(const ClusterView& view, SimTime now, Actuator& act) override;

  // --- the vacate planner's building blocks (pass 2) ----------------------
  // One resident of a vacate candidate as the planner will place it: `need`
  // bytes (the sampled working set when it goes as a partial, its full
  // footprint otherwise) and whether it is active (needs a CPU slot).
  struct VacateItem {
    uint64_t need;
    VmId vm;
    bool as_partial;
    bool active;
  };
  // A home to vacate: its total memory demand and its residents' rows
  // [begin, end) of the item table, in resident order.
  struct Candidate {
    HostId host;
    uint64_t demand;
    uint32_t begin;
    uint32_t end;
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
  // ascending id and their residents in resident order; each resident
  // writes the next row of `items` (from row 0), and each trusted-idle one
  // goes as a partial with one working-set draw — the draw order every
  // pinned output depends on. A home takes its draws in one bulk take and
  // reads its residents, their trust and their activity a word at a time
  // from the bitsets (DESIGN.md, "Per-home rounds"); no VmSlot is read.
  static std::vector<Candidate> ScanVacateCandidates(const ClusterView& view,
                                                     std::vector<VacateItem>& items);
  // The destination table over consolidation hosts: awake (powered or
  // resuming) ones first, `*powered_dests` of them, then sleeping ones.
  static std::vector<Dest> BuildDestTable(const ClusterView& view, size_t* powered_dests);
  // Places the demand-sorted candidates' items onto a scratch copy of the
  // destination table — random among the powered prefix (one planning-rng
  // draw per visited item), first-fit spill onto sleeping hosts — and
  // prices the plan's §3.1 net power delta. This is the only part of pass 2
  // that draws from the planning rng. A candidate whose items do not all
  // fit is undone from a log of the destinations its items took.
  static VacatePlan PlaceAndPrice(const ClusterView& view,
                                  const std::vector<Candidate>& candidates,
                                  const std::vector<VacateItem>& items,
                                  std::vector<Dest> dests, size_t powered_dests);

 private:
  // Prices the candidates twice — conservatively on the awake hosts only,
  // aggressively allowing sleeping ones to be woken — and returns the plan
  // that saves more (the conservative one on ties).
  static VacatePlan BestVacatePlan(const ClusterView& view,
                                   const std::vector<Candidate>& candidates,
                                   const std::vector<VacateItem>& items);
  void MaybeCommitVacatePlan(SimTime now, Actuator& act, PlanActions& actions,
                             const VacatePlan& best) const;

  // Per-interval scratch: the vacate item table, a row per VM, whose rows
  // the candidate scan rewrites before any is read.
  std::vector<VacateItem> vacate_items_;

  // Pass 1 decisions: every swap group's VMs in one vector, and per home
  // (ascending) the range [begin, end) of `vms` that is its group.
  struct SwapGroups {
    struct Group {
      HostId home;
      size_t begin;
      size_t end;
    };
    std::vector<VmId> vms;
    std::vector<Group> groups;
  };

  SwapGroups ComputeSwapGroups(const ClusterView& view) const;
  void ExecuteSwapGroups(const SwapGroups& swaps, SimTime now, Actuator& act,
                         PlanActions& actions) const;
  HostId SelectDrainSource(const ClusterView& view, SimTime now) const;
  // Executes the incremental drain from `source_id` (kNoHost = nothing to
  // drain): the completion-feasibility gate plus the per-VM moves, whose
  // destination scans stay live because each move mutates the cluster.
  int ExecuteDrain(const ClusterView& view, SimTime now, Actuator& act,
                   HostId source_id) const;
};

}  // namespace oasis

#endif  // OASIS_SRC_CLUSTER_STRATEGY_OASIS_H_
