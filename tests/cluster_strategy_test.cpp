// Unit tests at the strategy boundary: the policy layer introduced by the
// control-plane split (view / strategy / actuator, see DESIGN.md).
//
//   - ClusterManager::BaselineEnergy closed form and trace-independence.
//   - The §3.1 power-delta gate, driven directly through the greedy
//     planner's candidate scan and PlaceAndPrice against a live manager's
//     view — no full-day run needed to see the gate open or close.
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

TEST(BaselineEnergyTest, ClosedFormAndTraceIndependence) {
  ClusterConfig config = SmallCluster(ConsolidationPolicy::kFullToPartial);
  TraceSet idle = UniformTrace(config.TotalVms(), false);
  TraceSet active = UniformTrace(config.TotalVms(), true);

  // The baseline is the no-consolidation loaded draw: every home powered all
  // day hosting its full complement of VMs, regardless of their activity.
  Joules from_idle = ClusterManager::BaselineEnergy(config, idle);
  Joules from_active = ClusterManager::BaselineEnergy(config, active);
  EXPECT_DOUBLE_EQ(from_idle, from_active);

  double per_host = 102.2 + 5 * (137.9 - 102.2) / 20.0;
  EXPECT_NEAR(ToKWh(from_idle), 4 * per_host * 24.0 / 1000.0, 0.01);
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
// built the way the greedy planner builds it; `planned_ws` receives the
// candidate scan's working-set samples.
VacatePlan AggressivePlan(const ClusterView& view, SimTime now,
                          std::vector<OasisGreedyStrategy::Candidate>* candidates,
                          std::vector<uint64_t>* planned_ws) {
  *candidates = OasisGreedyStrategy::ScanVacateCandidates(view, now, *planned_ws);
  size_t powered_dests = 0;
  std::vector<OasisGreedyStrategy::Dest> dests =
      OasisGreedyStrategy::BuildDestTable(view, &powered_dests);
  return OasisGreedyStrategy::PlaceAndPrice(view, *candidates, std::move(dests), powered_dests,
                                            *planned_ws);
}

TEST(VacatePlanGateTest, AllIdleClusterBuildsAPowerSavingPlan) {
  ClusterConfig config = SmallCluster(ConsolidationPolicy::kFullToPartial);
  ClusterManager manager(config, UniformTrace(config.TotalVms(), false));
  ClusterView view = manager.View();

  // VmSlot::idle_since predates the epoch by eras, so a VM idle from trace
  // interval 0 is already trusted-idle at t=0: every home is a candidate and
  // every VM draws a working-set sample.
  SimTime now = SimTime::Zero();
  std::vector<OasisGreedyStrategy::Candidate> candidates;
  std::vector<uint64_t> planned_ws;
  VacatePlan plan = AggressivePlan(view, now, &candidates, &planned_ws);
  std::set<HostId> candidate_homes;
  for (const OasisGreedyStrategy::Candidate& c : candidates) {
    candidate_homes.insert(c.host);
  }
  for (HostId h = 0; h < static_cast<HostId>(view.num_hosts()); ++h) {
    if (view.host(h).IsHomeHost()) {
      EXPECT_TRUE(candidate_homes.count(h)) << "home " << h;
    }
  }
  EXPECT_EQ(std::count_if(planned_ws.begin(), planned_ws.end(),
                          [](uint64_t ws) { return ws != 0; }),
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
  ClusterConfig config = SmallCluster(ConsolidationPolicy::kFullToPartial);
  ClusterManager manager(config, UniformTrace(config.TotalVms(), true));
  ClusterView view = manager.View();

  // An active VM is never trusted-idle, and a freshly-idled one stays
  // untrusted until the smoothing window has elapsed (§3.1).
  VmSlot active_vm = view.vm(0);
  active_vm.activity = VmActivity::kActive;
  EXPECT_FALSE(view.TrustedIdle(active_vm, SimTime::Hours(12)));

  VmSlot fresh = view.vm(0);
  fresh.activity = VmActivity::kIdle;
  fresh.idle_since = SimTime::Hours(12);
  EXPECT_FALSE(view.TrustedIdle(fresh, SimTime::Hours(12)));
  EXPECT_TRUE(view.TrustedIdle(fresh, SimTime::Hours(12) +
                                          config.planning_interval *
                                              config.idle_smoothing_intervals));
}

TEST(VacatePlanGateTest, RuinousMemoryServerPowerClosesTheGate) {
  // Inflate the memory servers until parking a home costs more than it
  // saves: the plan still packs every VM, but its net delta goes negative.
  ClusterConfig config = SmallCluster(ConsolidationPolicy::kFullToPartial);
  config.memory_server_power = MemoryServerProfile::WithPower(10'000.0);
  ClusterManager manager(config, UniformTrace(config.TotalVms(), false));
  ClusterView view = manager.View();

  std::vector<OasisGreedyStrategy::Candidate> candidates;
  std::vector<uint64_t> planned_ws;
  VacatePlan plan = AggressivePlan(view, SimTime::Zero(), &candidates, &planned_ws);
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
  ASSERT_EQ(names.size(), 4u);
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
