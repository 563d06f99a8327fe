// Unit tests at the strategy boundary: the policy layer introduced by the
// control-plane split (view / strategy / actuator, see DESIGN.md).
//
//   - ClusterManager::BaselineEnergy closed form.
//   - The §3.1 power-delta gate, driven directly through the greedy
//     planner's candidate scan and PlaceAndPrice against a live manager's
//     view — no full-day run needed to see the gate open or close.
//   - The item-table vacate planner against the planned_ws planner it
//     replaced (kept here as the reference): identical plans and identical
//     planning-stream positions on several cluster shapes.
//   - Digest identity: an explicit strategy_name = "oasis-greedy" is
//     byte-identical to the default-constructed config.
//   - Registry sanity: every registered name instantiates, unknown names
//     fail loudly in MakeStrategy and ClusterConfig::Validate.

#include "src/cluster/strategy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "src/check/check.h"
#include "src/cluster/manager.h"
#include "src/cluster/power_delta.h"
#include "src/cluster/strategy_oasis.h"
#include "src/trace/trace_generator.h"
#include "tests/metric_digest.h"

namespace oasis {
namespace {

using check::CheckMode;
using check::InvariantChecker;

ClusterConfig SmallCluster(ConsolidationPolicy policy) {
  ClusterConfig config;
  config.num_home_hosts = 4;
  config.num_consolidation_hosts = 2;
  config.vms_per_home = 5;
  config.policy = policy;
  config.seed = 7;
  return config;
}

TraceSet UniformTrace(int users, bool active) {
  TraceSet set;
  for (int u = 0; u < users; ++u) {
    UserDay day;
    if (active) {
      for (int i = 0; i < kIntervalsPerDay; ++i) {
        day.SetActive(i, true);
      }
    }
    set.push_back(day);
  }
  return set;
}

// --- BaselineEnergy ---------------------------------------------------------

TEST(BaselineEnergyTest, IsFlatLoadedDraw) {
  // The baseline is the no-consolidation loaded draw: every home powered all
  // day hosting its full complement of VMs. It takes no trace, so user
  // activity cannot enter it. 4 homes, each saturating below 20 VMs:
  // 102.2 + 5 * 1.785 W, 24 h.
  ClusterConfig config = SmallCluster(ConsolidationPolicy::kFullToPartial);
  Joules baseline = ClusterManager::BaselineEnergy(config);
  double per_host = 102.2 + 5 * (137.9 - 102.2) / 20.0;
  EXPECT_NEAR(ToKWh(baseline), 4 * per_host * 24.0 / 1000.0, 0.01);
}

TEST(BaselineEnergyTest, AllActiveRunDrawsExactlyTheBaseline) {
  // Under OnlyPartial an active VM can never leave its home, so with every
  // VM active all day nothing consolidates and the home hosts reproduce the
  // baseline draw to the joule. (FulltoPartial would NOT hold this: active
  // VMs full-migrate — the hybrid in "hybrid server consolidation".)
  ClusterConfig config = SmallCluster(ConsolidationPolicy::kOnlyPartial);
  ClusterManager manager(config, UniformTrace(config.TotalVms(), true));
  ClusterMetrics m = manager.Run();
  EXPECT_NEAR(m.home_host_energy, m.baseline_energy, 1e-6 * m.baseline_energy);
  EXPECT_EQ(m.host_sleeps, 0u);
}

// --- the §3.1 power-delta gate, at the strategy boundary --------------------

// One aggressive vacate plan (sleeping consolidation hosts may be woken),
// built the way the greedy planner builds it; `items` receives the
// candidate scan's item table.
VacatePlan AggressivePlan(const ClusterView& view,
                          std::vector<OasisGreedyStrategy::Candidate>* candidates,
                          std::vector<OasisGreedyStrategy::VacateItem>* items) {
  *candidates = OasisGreedyStrategy::ScanVacateCandidates(view, *items);
  size_t powered_dests = 0;
  std::vector<OasisGreedyStrategy::Dest> dests =
      OasisGreedyStrategy::BuildDestTable(view, &powered_dests);
  return OasisGreedyStrategy::PlaceAndPrice(view, *candidates, *items, std::move(dests),
                                            powered_dests);
}

TEST(VacatePlanGateTest, AllIdleClusterBuildsAPowerSavingPlan) {
  ClusterConfig config = SmallCluster(ConsolidationPolicy::kFullToPartial);
  ClusterManager manager(config, UniformTrace(config.TotalVms(), false));
  ClusterView view = manager.View();

  // A fresh manager reads every VM idle at row 0 as idle since long before,
  // so it is already trusted-idle: every home is a candidate and every VM
  // draws a working-set sample.
  std::vector<OasisGreedyStrategy::Candidate> candidates;
  std::vector<OasisGreedyStrategy::VacateItem> items;
  VacatePlan plan = AggressivePlan(view, &candidates, &items);
  std::set<HostId> candidate_homes;
  for (const OasisGreedyStrategy::Candidate& c : candidates) {
    candidate_homes.insert(c.host);
  }
  for (HostId h = 0; h < static_cast<HostId>(view.num_hosts()); ++h) {
    if (view.host(h).IsHomeHost()) {
      EXPECT_TRUE(candidate_homes.count(h)) << "home " << h;
    }
  }
  ASSERT_EQ(items.size(), static_cast<size_t>(config.TotalVms()));
  EXPECT_EQ(std::count_if(items.begin(), items.end(),
                          [](const OasisGreedyStrategy::VacateItem& item) {
                            return item.as_partial && item.need > 0;
                          }),
            config.TotalVms());

  ASSERT_FALSE(plan.hosts_to_vacate.empty());
  EXPECT_GT(plan.net_power_delta_watts, 0.0);
  ASSERT_EQ(plan.placements.size(), plan.hosts_to_vacate.size());
  for (const auto& group : plan.placements) {
    EXPECT_EQ(group.size(), static_cast<size_t>(config.vms_per_home));
    for (const VacatePlacement& p : group) {
      EXPECT_TRUE(p.as_partial);  // trusted-idle VMs consolidate partially
      EXPECT_GT(p.bytes, 0u);
      EXPECT_TRUE(view.host(p.dest).IsConsolidationHost());
    }
  }
}

TEST(VacatePlanGateTest, TrustedIdleGatesEligibility) {
  // An active VM is never trusted-idle, and a freshly-idled one stays
  // untrusted until the smoothing window has elapsed (§3.1). With 5-minute
  // rounds and the default two-interval window, the day's last round
  // (interval 287) trusts exactly the VMs idle in intervals 285-287. VM v
  // is active in every interval before 285 + v - 2 and idle from then on.
  ClusterConfig config = SmallCluster(ConsolidationPolicy::kOnlyPartial);
  ASSERT_EQ(config.idle_smoothing_intervals, 2);
  TraceSet trace = UniformTrace(config.TotalVms(), false);
  for (int v = 0; v < 5; ++v) {
    for (int i = 0; i < 285 + v - 2; ++i) {
      trace[static_cast<size_t>(v)].SetActive(i, true);
    }
  }
  ClusterManager fresh(config, trace);
  EXPECT_FALSE(fresh.View().trusted_idle(0)) << "active at row 0";
  EXPECT_TRUE(fresh.View().trusted_idle(5)) << "idle at row 0";

  ClusterManager manager(config, trace);
  manager.Run();
  ClusterView view = manager.View();
  EXPECT_TRUE(view.trusted_idle(0)) << "idle in intervals 283-287";
  EXPECT_TRUE(view.trusted_idle(1)) << "idle in intervals 284-287";
  EXPECT_TRUE(view.trusted_idle(2)) << "idle in intervals 285-287";
  EXPECT_FALSE(view.trusted_idle(3)) << "idle in intervals 286-287 only";
  EXPECT_FALSE(view.trusted_idle(4)) << "idle in interval 287 only";
  EXPECT_TRUE(view.trusted_idle(5)) << "idle all day";
  // Home 0 still holds the untrusted VMs 3 and 4.
  EXPECT_FALSE(view.TrustedIdleHome(0));
}

TEST(VacatePlanGateTest, RuinousMemoryServerPowerClosesTheGate) {
  // Inflate the memory servers until parking a home costs more than it
  // saves: the plan still packs every VM, but its net delta goes negative.
  ClusterConfig config = SmallCluster(ConsolidationPolicy::kFullToPartial);
  config.memory_server_power = MemoryServerProfile::WithPower(10'000.0);
  ClusterManager manager(config, UniformTrace(config.TotalVms(), false));
  ClusterView view = manager.View();

  std::vector<OasisGreedyStrategy::Candidate> candidates;
  std::vector<OasisGreedyStrategy::VacateItem> items;
  VacatePlan plan = AggressivePlan(view, &candidates, &items);
  EXPECT_FALSE(plan.hosts_to_vacate.empty());
  EXPECT_LT(plan.net_power_delta_watts, 0.0);
}

TEST(VacatePlanGateTest, ClosedGateMeansNoConsolidationAllDay) {
  ClusterConfig config = SmallCluster(ConsolidationPolicy::kFullToPartial);
  config.memory_server_power = MemoryServerProfile::WithPower(10'000.0);
  ClusterManager gated(config, UniformTrace(config.TotalVms(), false));
  ClusterMetrics m = gated.Run();
  EXPECT_EQ(m.partial_migrations, 0u);
  EXPECT_EQ(m.host_sleeps, 0u);
  EXPECT_EQ(m.timeline.back().powered_home_hosts, config.num_home_hosts);

  // Sanity that the gate (not something else) was the blocker: the same
  // cluster with stock memory servers consolidates and sleeps.
  ClusterConfig stock = SmallCluster(ConsolidationPolicy::kFullToPartial);
  ClusterManager open(stock, UniformTrace(stock.TotalVms(), false));
  ClusterMetrics open_m = open.Run();
  EXPECT_GT(open_m.partial_migrations, 0u);
  EXPECT_GT(open_m.host_sleeps, 0u);
}

// --- the item-table planner against the planned_ws reference --------------

// The vacate scan and PlaceAndPrice as they stood before the item table: a
// num_vms-sized, id-indexed planned_ws array (nonzero = place as partial)
// and a placement loop that re-reads every resident's VmSlot. Kept as the
// reference the item-table planner must match decision for decision and
// draw for draw.
namespace reference {

struct Candidate {
  HostId host;
  uint64_t demand;
};

std::vector<Candidate> ScanVacateCandidates(const ClusterView& view,
                                            std::vector<uint64_t>& planned_ws) {
  const ClusterConfig& config = view.config();
  bool only_partial = config.policy == ConsolidationPolicy::kOnlyPartial;
  auto trusted_idle = [&view](VmId id) { return view.trusted_idle(id); };
  planned_ws.assign(view.num_vms(), 0);
  std::vector<Candidate> candidates;
  for (HostId h = 0; h < static_cast<HostId>(config.num_home_hosts); ++h) {
    const ClusterHost& host = view.host(h);
    if (!host.IsPowered() || !host.HasVms() || !host.s3_capable() ||
        view.inflight_residents(h) > 0) {
      continue;
    }
    if (only_partial && !std::all_of(host.vms().begin(), host.vms().end(), trusted_idle)) {
      continue;
    }
    uint64_t demand = 0;
    for (VmId id : host.vms()) {
      if (view.trusted_idle(id)) {
        uint64_t ws = view.SampleWorkingSet();
        planned_ws[id] = ws;
        demand += ws;
      } else {
        demand += config.vm_memory_bytes;
      }
    }
    candidates.push_back({h, demand});
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) { return a.demand < b.demand; });
  return candidates;
}

VacatePlan PlaceAndPrice(const ClusterView& view, const std::vector<Candidate>& candidates,
                         std::vector<OasisGreedyStrategy::Dest> dests, size_t powered_dests,
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
      bool as_partial = planned_ws[id] != 0;
      uint64_t need = as_partial ? planned_ws[id] : view.config().vm_memory_bytes;
      bool placed = false;
      auto try_segment = [&](size_t first, size_t count, bool randomize) {
        if (count == 0 || placed) {
          return;
        }
        size_t start = randomize ? first + view.planning_rng().NextBelow(count) : first;
        for (size_t k = 0; k < count; ++k) {
          size_t idx = first + (start - first + k) % count;
          OasisGreedyStrategy::Dest& d = dests[idx];
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
  power_delta::DeltaAccumulator delta(view);
  for (HostId home : plan.hosts_to_vacate) {
    delta.AddVacatedHome(home);
  }
  for (const OasisGreedyStrategy::Dest& d : dests) {
    if (d.sleeping && d.used) {
      delta.AddWokenConsolidationHost(d.host);
    }
  }
  plan.newly_woken_consolidation_hosts = delta.total_woken();
  plan.net_power_delta_watts = delta.NetWatts();
  return plan;
}

}  // namespace reference

void ExpectSamePlan(const VacatePlan& want, const VacatePlan& got, const std::string& what) {
  SCOPED_TRACE(what);
  ASSERT_EQ(want.hosts_to_vacate, got.hosts_to_vacate);
  ASSERT_EQ(want.placements.size(), got.placements.size());
  for (size_t i = 0; i < want.placements.size(); ++i) {
    ASSERT_EQ(want.placements[i].size(), got.placements[i].size()) << "home " << i;
    for (size_t k = 0; k < want.placements[i].size(); ++k) {
      const VacatePlacement& w = want.placements[i][k];
      const VacatePlacement& g = got.placements[i][k];
      EXPECT_EQ(w.vm, g.vm) << "home " << i << " placement " << k;
      EXPECT_EQ(w.dest, g.dest) << "home " << i << " placement " << k;
      EXPECT_EQ(w.as_partial, g.as_partial) << "home " << i << " placement " << k;
      EXPECT_EQ(w.bytes, g.bytes) << "home " << i << " placement " << k;
    }
  }
  EXPECT_EQ(want.net_power_delta_watts, got.net_power_delta_watts);
  EXPECT_EQ(want.newly_woken_consolidation_hosts, got.newly_woken_consolidation_hosts);
}

// What one shape exercised, so the suite can insist its shapes between them
// cover every branch of the placement loop.
struct PlannerCoverage {
  size_t candidates = 0;
  size_t powered_dests = 0;
  size_t sleeping_dests = 0;
  size_t vacated = 0;  // by the aggressive plan
  size_t full_placements = 0;
  // Candidates whose residents mix all three states: active, idle but not
  // yet trusted, and trusted idle (placed as partials).
  size_t mixed_candidates = 0;
};

// Builds two identical managers (optionally runs each through the whole
// day, or steps it to `until`), plans the reference on one and the
// item-table planner on the other — the scan, then BestVacatePlan's
// conservative and aggressive pricing — and expects identical candidates,
// working-set stream positions after the scan, plans and planning-stream
// positions.
PlannerCoverage ExpectPlannersAgree(const ClusterConfig& config, const TraceSet& trace,
                                    bool run_day, SimTime until = SimTime::Zero()) {
  ClusterManager ref_manager(config, trace);
  ClusterManager new_manager(config, trace);
  if (run_day) {
    ref_manager.Run();
    new_manager.Run();
  } else if (until > SimTime::Zero()) {
    ref_manager.RunUntil(until);
    new_manager.RunUntil(until);
  }
  ClusterView ref_view = ref_manager.View();
  ClusterView new_view = new_manager.View();

  std::vector<uint64_t> planned_ws;
  std::vector<reference::Candidate> ref_candidates =
      reference::ScanVacateCandidates(ref_view, planned_ws);
  std::vector<OasisGreedyStrategy::VacateItem> items;
  std::vector<OasisGreedyStrategy::Candidate> candidates =
      OasisGreedyStrategy::ScanVacateCandidates(new_view, items);
  PlannerCoverage coverage;
  coverage.candidates = candidates.size();
  EXPECT_EQ(ref_candidates.size(), candidates.size());
  for (size_t i = 0; i < std::min(ref_candidates.size(), candidates.size()); ++i) {
    EXPECT_EQ(ref_candidates[i].host, candidates[i].host) << "candidate " << i;
    EXPECT_EQ(ref_candidates[i].demand, candidates[i].demand) << "candidate " << i;
    bool active = false;
    bool untrusted_idle = false;
    bool trusted_idle = false;
    for (uint32_t row = candidates[i].begin; row < candidates[i].end; ++row) {
      const OasisGreedyStrategy::VacateItem& item = items[row];
      active |= item.active;
      untrusted_idle |= !item.active && !item.as_partial;
      trusted_idle |= item.as_partial;
    }
    coverage.mixed_candidates += active && untrusted_idle && trusted_idle ? 1 : 0;
  }
  // The scan took exactly one draw per trusted-idle resident: both streams
  // stand at the same sample (drawn here from both, so they stay level).
  EXPECT_EQ(ref_view.SampleWorkingSet(), new_view.SampleWorkingSet()) << "after the scan";

  size_t ref_powered = 0;
  size_t powered = 0;
  std::vector<OasisGreedyStrategy::Dest> ref_dests =
      OasisGreedyStrategy::BuildDestTable(ref_view, &ref_powered);
  std::vector<OasisGreedyStrategy::Dest> dests =
      OasisGreedyStrategy::BuildDestTable(new_view, &powered);
  EXPECT_EQ(ref_powered, powered);
  coverage.powered_dests = powered;
  coverage.sleeping_dests = dests.size() - powered;
  for (bool aggressive : {false, true}) {
    size_t ref_count = aggressive ? ref_dests.size() : ref_powered;
    size_t count = aggressive ? dests.size() : powered;
    VacatePlan want = reference::PlaceAndPrice(
        ref_view, ref_candidates,
        std::vector<OasisGreedyStrategy::Dest>(ref_dests.begin(),
                                               ref_dests.begin() + static_cast<long>(ref_count)),
        ref_powered, planned_ws);
    VacatePlan got = OasisGreedyStrategy::PlaceAndPrice(
        new_view, candidates, items,
        std::vector<OasisGreedyStrategy::Dest>(dests.begin(),
                                               dests.begin() + static_cast<long>(count)),
        powered);
    ExpectSamePlan(want, got, aggressive ? "aggressive" : "conservative");
    if (aggressive) {
      coverage.vacated = got.hosts_to_vacate.size();
      for (const auto& group : got.placements) {
        coverage.full_placements += static_cast<size_t>(std::count_if(
            group.begin(), group.end(), [](const VacatePlacement& p) { return !p.as_partial; }));
      }
    }
  }
  EXPECT_EQ(ref_view.planning_rng().NextU64(), new_view.planning_rng().NextU64());
  EXPECT_EQ(ref_view.SampleWorkingSet(), new_view.SampleWorkingSet());
  return coverage;
}

// Every third user active all day, the rest idle all day.
TraceSet MixedTrace(int users) {
  TraceSet set = UniformTrace(users, false);
  for (int u = 0; u < users; u += 3) {
    for (int i = 0; i < kIntervalsPerDay; ++i) {
      set[static_cast<size_t>(u)].SetActive(i, true);
    }
  }
  return set;
}

// Consolidation hosts that never sleep (a "legacy-no-s3" fleet segment
// behind `homes` default-generation homes) start powered, so the planner
// draws destinations at random from t=0.
void MakeConsolidationHostsAlwaysOn(ClusterConfig& config, int count) {
  config.fleet.segments = {{"table1", config.num_home_hosts}, {"legacy-no-s3", count}};
}

TEST(VacateItemTableTest, MatchesTheReferencePlannerOnEveryShape) {
  std::vector<PlannerCoverage> covered;
  {
    SCOPED_TRACE("mixed active/idle at t=0, every consolidation host asleep");
    ClusterConfig config = SmallCluster(ConsolidationPolicy::kFullToPartial);
    config.num_home_hosts = 6;
    config.num_consolidation_hosts = 3;
    config.vms_per_home = 8;
    covered.push_back(ExpectPlannersAgree(config, MixedTrace(config.TotalVms()), false));
  }
  {
    SCOPED_TRACE("OnlyPartial, mixed at t=0");
    ClusterConfig config = SmallCluster(ConsolidationPolicy::kOnlyPartial);
    config.num_home_hosts = 6;
    config.vms_per_home = 8;
    TraceSet trace = MixedTrace(config.TotalVms());
    // Leave the last two homes all idle so OnlyPartial has candidates.
    for (int v = 4 * config.vms_per_home; v < config.TotalVms(); ++v) {
      trace[static_cast<size_t>(v)] = UserDay();
    }
    covered.push_back(ExpectPlannersAgree(config, trace, false));
  }
  for (int mod : {1, 2, 3}) {
    SCOPED_TRACE("two always-on consolidation hosts and one asleep, 1/" +
                 std::to_string(mod) + " of the users active at t=0");
    ClusterConfig config = SmallCluster(ConsolidationPolicy::kFullToPartial);
    config.num_home_hosts = 12;
    config.num_consolidation_hosts = 3;
    config.vms_per_home = 10;
    MakeConsolidationHostsAlwaysOn(config, 2);
    TraceSet trace = UniformTrace(config.TotalVms(), false);
    for (int u = 0; u < config.TotalVms(); u += mod) {
      trace[static_cast<size_t>(u)] = UniformTrace(1, true)[0];
    }
    covered.push_back(ExpectPlannersAgree(config, trace, false));
  }
  {
    SCOPED_TRACE("after a day whose last hours fill the one consolidation host");
    ClusterConfig config = SmallCluster(ConsolidationPolicy::kFullToPartial);
    config.num_home_hosts = 8;
    config.num_consolidation_hosts = 1;
    config.vms_per_home = 10;
    TraceSet trace = UniformTrace(config.TotalVms(), false);
    for (int u = 0; u < config.TotalVms(); u += 2) {
      for (int i = 200; i < kIntervalsPerDay; ++i) {
        trace[static_cast<size_t>(u)].SetActive(i, true);
      }
    }
    covered.push_back(ExpectPlannersAgree(config, trace, true));
  }
  for (int always_on : {0, 2}) {
    SCOPED_TRACE("36x110+4 rack at t=0, " + std::to_string(always_on) +
                 " always-on consolidation hosts");
    ClusterConfig config;
    config.num_home_hosts = 36;
    config.num_consolidation_hosts = 4;
    config.SetVmsPerHome(110);
    config.seed = 11;
    if (always_on > 0) {
      MakeConsolidationHostsAlwaysOn(config, always_on);
    }
    TraceGenerator gen(TraceGeneratorConfig{}, 11);
    TraceSet trace = gen.GenerateTraceSet(config.TotalVms(), DayKind::kWeekday);
    covered.push_back(ExpectPlannersAgree(config, trace, false));
  }
  for (int vms_per_home : {45, 110}) {
    for (double hour : {9.0, 17.5}) {
      SCOPED_TRACE(std::to_string(vms_per_home) + " VMs per home (windows straddle words) at " +
                   std::to_string(hour) + " h, active, idle and trusted-idle residents mixed");
      ClusterConfig config;
      config.num_home_hosts = vms_per_home == 45 ? 10 : 36;
      config.num_consolidation_hosts = 4;
      config.SetVmsPerHome(vms_per_home);
      config.seed = 23;
      MakeConsolidationHostsAlwaysOn(config, 2);
      TraceGenerator gen(TraceGeneratorConfig{}, 23);
      TraceSet trace = gen.GenerateTraceSet(config.TotalVms(), DayKind::kWeekday);
      covered.push_back(ExpectPlannersAgree(config, trace, false, SimTime::Hours(hour)));
    }
  }
  // Between them the shapes draw destinations at random among several
  // powered hosts, spill first-fit onto sleeping ones, place actives in
  // full, and both vacate candidates and undo ones that do not fit; some
  // candidate holds active, idle-but-untrusted and trusted-idle residents.
  auto any = [&covered](auto pred) { return std::any_of(covered.begin(), covered.end(), pred); };
  EXPECT_TRUE(any([](const PlannerCoverage& c) {
    return c.powered_dests > 1 && c.vacated > 0 && c.vacated < c.candidates;
  }));
  EXPECT_TRUE(any([](const PlannerCoverage& c) { return c.sleeping_dests > 0 && c.vacated > 0; }));
  EXPECT_TRUE(any([](const PlannerCoverage& c) { return c.full_placements > 0; }));
  EXPECT_TRUE(any([](const PlannerCoverage& c) { return c.mixed_candidates > 0; }));
}

// --- strategy selection -----------------------------------------------------

class StrategySelectionTest : public ::testing::Test {
 protected:
  void SetUp() override { InvariantChecker::Install(&checker_); }
  void TearDown() override {
    InvariantChecker::Install(nullptr);
    EXPECT_EQ(checker_.violation_count(), 0u)
        << "invariant violations recorded during a strategy run";
  }

  static SimulationConfig BaseConfig() {
    SimulationConfig config;
    config.cluster.num_home_hosts = 6;
    config.cluster.num_consolidation_hosts = 2;
    config.cluster.vms_per_home = 8;
    config.cluster.policy = ConsolidationPolicy::kFullToPartial;
    config.seed = 2016;
    return config;
  }

  InvariantChecker checker_{CheckMode::kWarn};
};

TEST_F(StrategySelectionTest, ExplicitDefaultNameIsByteIdenticalToDefault) {
  SimulationConfig implicit = BaseConfig();
  SimulationConfig explicit_name = BaseConfig();
  explicit_name.cluster.strategy_name = kDefaultStrategyName;
  EXPECT_EQ(testing::DigestResult(ClusterSimulation(implicit).Run()),
            testing::DigestResult(ClusterSimulation(explicit_name).Run()));
}

TEST_F(StrategySelectionTest, RegisteredStrategiesAreDistinctAndClean) {
  // Every registered strategy completes a full day with zero invariant
  // violations (the fixture asserts that at teardown) and no two of them
  // are byte-identical — the ablation in bench/ablation_policy.cpp is
  // comparing genuinely different policies.
  std::set<uint64_t> digests;
  for (const std::string& name : RegisteredStrategyNames()) {
    SimulationConfig config = BaseConfig();
    config.cluster.strategy_name = name;
    SimulationResult result = ClusterSimulation(config).Run();
    EXPECT_GE(result.metrics.baseline_energy, result.metrics.home_host_energy)
        << name << " burned more home-host energy than the no-consolidation baseline";
    digests.insert(testing::DigestResult(result));
  }
  EXPECT_EQ(digests.size(), RegisteredStrategyNames().size())
      << "two registered strategies produced byte-identical runs";
}

// --- registry ---------------------------------------------------------------

TEST(StrategyRegistryTest, EveryNameInstantiatesAndRoundTrips) {
  const std::vector<std::string>& names = RegisteredStrategyNames();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names.front(), kDefaultStrategyName);
  for (const std::string& name : names) {
    EXPECT_TRUE(IsRegisteredStrategyName(name));
    std::unique_ptr<ConsolidationStrategy> strategy = MakeStrategy(name);
    ASSERT_NE(strategy, nullptr) << name;
    EXPECT_EQ(strategy->name(), name);
    EXPECT_NE(RegisteredStrategyNamesJoined().find(name), std::string::npos);
  }
  EXPECT_FALSE(IsRegisteredStrategyName("round-robin"));
  EXPECT_EQ(MakeStrategy("round-robin"), nullptr);
}

TEST(StrategyRegistryTest, ValidateRejectsUnknownStrategyNameListingRegistered) {
  ClusterConfig config = SmallCluster(ConsolidationPolicy::kFullToPartial);
  config.strategy_name = "definitely-not-a-strategy";
  Status status = config.Validate();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("definitely-not-a-strategy"), std::string::npos)
      << status.message();
  for (const std::string& name : RegisteredStrategyNames()) {
    EXPECT_NE(status.message().find(name), std::string::npos) << status.message();
  }
}

}  // namespace
}  // namespace oasis
