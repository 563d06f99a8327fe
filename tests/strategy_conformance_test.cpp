// Strategy conformance: the registry-wide contract. Every registered
// consolidation strategy — present and future — must hold the invariants no
// policy is allowed to trade away, across fuzzed cluster shapes and a
// fault-heavy chaos day:
//
//   * capacity is never exceeded and no cluster invariant is violated (the
//     fixture's InvariantChecker counts violations; strict mode in CI turns
//     any one of them into a hard exit);
//   * the §3.1 power gate is never bypassed: a strategy that declares
//     has_power_gate commits nothing on a cluster configured so that
//     consolidation can only lose energy — and a strategy that declares the
//     opposite really does migrate there (the trait is honest);
//   * every strategy is jobs-invariant: the same repetitions fold to the
//     same digests at OASIS_JOBS 1 and 4.
//
// The suite iterates RegisteredStrategyNames() so a newly registered
// strategy is conformance-tested by construction, with zero edits here.

#include "src/cluster/strategy.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/check/check.h"
#include "src/cluster/manager.h"
#include "src/common/rng.h"
#include "src/core/oasis.h"
#include "src/exp/exp.h"
#include "src/fault/fault.h"
#include "src/power/host_profile.h"
#include "src/trace/activity_trace.h"
#include "tests/metric_digest.h"
#include "tests/test_env.h"

namespace oasis {
namespace {

using check::CheckMode;
using check::InvariantChecker;

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

// A small-but-interesting rack: enough homes that vacate plans span several
// hosts, two consolidation hosts so draining has somewhere to go.
SimulationConfig SmallRack(const std::string& strategy) {
  SimulationConfig config;
  config.cluster.num_home_hosts = 6;
  config.cluster.num_consolidation_hosts = 2;
  config.cluster.vms_per_home = 8;
  config.cluster.policy = ConsolidationPolicy::kFullToPartial;
  config.cluster.strategy_name = strategy;
  config.seed = 2016;
  return config;
}

class StrategyConformanceTest : public ::testing::Test {
 protected:
  void SetUp() override { InvariantChecker::Install(&checker_); }
  void TearDown() override {
    InvariantChecker::Install(nullptr);
    EXPECT_EQ(checker_.violation_count(), 0u)
        << "cluster invariant violations recorded during a conformance run";
  }

  InvariantChecker checker_{CheckMode::kWarn};
};

// --- registry metadata ------------------------------------------------------

TEST(StrategyTraitsTest, TraitsMatchTheRegistryContract) {
  auto traits_of = [](const std::string& name) {
    std::unique_ptr<ConsolidationStrategy> s = MakeStrategy(name);
    EXPECT_NE(s, nullptr) << name;
    return s->traits();
  };
  // local-threshold is the only strategy without the §3.1 gate.
  EXPECT_TRUE(traits_of("oasis-greedy").has_power_gate);
  EXPECT_TRUE(traits_of("predictive").has_power_gate);
  EXPECT_TRUE(traits_of("first-fit-decreasing").has_power_gate);
  EXPECT_FALSE(traits_of("local-threshold").has_power_gate);
}

// --- fuzzed shapes ----------------------------------------------------------

TEST_F(StrategyConformanceTest, FuzzedShapesHoldTheInvariants) {
  // Deterministic "fuzz": a pinned Rng walks the shape space so a failure
  // reproduces exactly. Every run executes under the fixture's checker;
  // capacity breaches, double-residency, or power-state misuse all land in
  // violation_count and fail the suite at teardown.
  const int trials = testing::FuzzTrials(6);
  const ConsolidationPolicy kPolicies[] = {
      ConsolidationPolicy::kOnlyPartial, ConsolidationPolicy::kDefault,
      ConsolidationPolicy::kFullToPartial, ConsolidationPolicy::kNewHome};
  uint64_t salt = 0;
  for (const std::string& name : RegisteredStrategyNames()) {
    Rng rng(0xC04F04 + salt++);
    for (int t = 0; t < trials; ++t) {
      SimulationConfig config;
      config.cluster.num_home_hosts = 2 + static_cast<int>(rng.NextBelow(7));
      config.cluster.num_consolidation_hosts = 1 + static_cast<int>(rng.NextBelow(3));
      config.cluster.vms_per_home = 1 + static_cast<int>(rng.NextBelow(10));
      config.cluster.policy = kPolicies[rng.NextBelow(4)];
      config.cluster.strategy_name = name;
      config.day = rng.NextBelow(4) == 0 ? DayKind::kWeekend : DayKind::kWeekday;
      config.seed = rng.NextU64();
      SimulationResult result = ClusterSimulation(config).Run();
      EXPECT_GT(result.metrics.TotalEnergy(), 0.0) << name << " trial " << t;
      EXPECT_GE(result.metrics.baseline_energy, result.metrics.home_host_energy)
          << name << " trial " << t
          << ": home hosts burned more than the no-consolidation baseline";
      EXPECT_EQ(checker_.violation_count(), 0u)
          << name << " trial " << t << " (homes=" << config.cluster.num_home_hosts
          << " cons=" << config.cluster.num_consolidation_hosts
          << " vms=" << config.cluster.vms_per_home << " seed=" << config.seed << ")";
    }
  }
}

TEST_F(StrategyConformanceTest, FuzzedFleetMixesHoldTheInvariantsAndNeverSleepNoS3) {
  // Heterogeneous fleets: random generation mixes drawn from the catalog
  // over the SmallRack shape. Two contracts on top of the usual zero
  // violations: no strategy ever suspends an s3_capable=false host (their
  // per-class sleep ledger must read exactly zero), and S3-capable bands
  // keep working — the mix degrades savings, never correctness.
  const int trials = testing::FuzzTrials(4);
  const std::vector<HostProfile>& catalog = HostGenerationCatalog();
  uint64_t salt = 0;
  for (const std::string& name : RegisteredStrategyNames()) {
    Rng rng(0xF1EE7 + salt++);
    for (int t = 0; t < trials; ++t) {
      SimulationConfig config = SmallRack(name);
      // Carve the 6+2 rack into 1-3 random catalog segments; any remainder
      // past the covered prefix runs the default class-0 profile.
      const int segments = 1 + static_cast<int>(rng.NextBelow(3));
      int hosts_left = config.cluster.TotalHosts();
      for (int s = 0; s < segments && hosts_left > 0; ++s) {
        const int count = 1 + static_cast<int>(rng.NextBelow(
                                  static_cast<uint64_t>(hosts_left)));
        const std::string& generation =
            catalog[rng.NextBelow(catalog.size())].generation;
        config.cluster.fleet.segments.push_back({generation, count});
        hosts_left -= count;
      }
      config.seed = rng.NextU64();
      ASSERT_TRUE(config.cluster.Validate().ok());
      SimulationResult result = ClusterSimulation(config).Run();
      EXPECT_GT(result.metrics.TotalEnergy(), 0.0) << name << " trial " << t;
      EXPECT_EQ(checker_.violation_count(), 0u)
          << name << " trial " << t << " seed=" << config.seed;
      const ClusterMetrics& m = result.metrics;
      ASSERT_EQ(m.hosts_by_class.size(),
                static_cast<size_t>(config.cluster.NumProfileClasses()));
      for (size_t cls = 1; cls < m.hosts_by_class.size(); ++cls) {
        const FleetSegment& segment = config.cluster.fleet.segments[cls - 1];
        if (FindHostGeneration(segment.generation)->s3_capable) {
          continue;
        }
        EXPECT_EQ(m.host_sleep_seconds_by_class[cls], 0.0)
            << name << " trial " << t << ": a " << segment.generation
            << " host slept despite s3_capable=false (seed=" << config.seed << ")";
      }
    }
  }
}

TEST_F(StrategyConformanceTest, ChaosDayCompletesCleanly) {
  // Fault injection exercises the paths a polite day never touches: crashes
  // evicting residents, WoL losses stranding wakes, migration aborts. Every
  // strategy must ride it out without an invariant violation.
  for (const std::string& name : RegisteredStrategyNames()) {
    SimulationConfig config = SmallRack(name);
    config.cluster.fault = FaultConfig::ChaosDay();
    SimulationResult result = ClusterSimulation(config).Run();
    EXPECT_GT(result.metrics.TotalEnergy(), 0.0) << name;
    EXPECT_EQ(checker_.violation_count(), 0u) << name << " under chaos";
  }
}

// --- the power gate ---------------------------------------------------------

TEST_F(StrategyConformanceTest, PowerGateIsNeverBypassed) {
  // Memory servers inflated until parking a home costs more than it saves:
  // gated strategies must sit on their hands all day (baseline draw to the
  // joule), and the one strategy that declares no gate must actually commit
  // a losing plan there — proving the trait describes real behavior.
  for (const std::string& name : RegisteredStrategyNames()) {
    ClusterConfig config;
    config.num_home_hosts = 4;
    config.num_consolidation_hosts = 2;
    config.vms_per_home = 5;
    config.policy = ConsolidationPolicy::kFullToPartial;
    config.strategy_name = name;
    config.seed = 7;
    config.memory_server_power = MemoryServerProfile::WithPower(10'000.0);
    ClusterManager manager(config, UniformTrace(config.TotalVms(), false));
    ClusterMetrics m = manager.Run();
    if (MakeStrategy(name)->traits().has_power_gate) {
      EXPECT_EQ(m.partial_migrations, 0u) << name;
      EXPECT_EQ(m.full_migrations, 0u) << name;
      EXPECT_EQ(m.host_sleeps, 0u) << name;
      EXPECT_NEAR(m.home_host_energy, m.baseline_energy, 1e-6 * m.baseline_energy)
          << name << " deviated from baseline with the gate closed";
    } else {
      EXPECT_GT(m.partial_migrations, 0u)
          << name << " declares no power gate but never migrated";
    }
  }
}

// --- jobs identity ----------------------------------------------------------

TEST_F(StrategyConformanceTest, RepetitionsAreJobsInvariant) {
  // The worker count is an operational knob, never a semantic one: the same
  // repetition folds to the same digest whether it ran alone or on a pool.
  for (const std::string& name : RegisteredStrategyNames()) {
    auto digests_at = [&name](int jobs) {
      exp::ExperimentPlan plan;
      exp::RepetitionSpan span = plan.AddRepetitions(SmallRack(name), 3);
      std::vector<SimulationResult> results = exp::RunParallel(plan, jobs);
      std::vector<uint64_t> digests;
      for (size_t r = 0; r < static_cast<size_t>(span.count); ++r) {
        digests.push_back(testing::DigestResult(results.at(span.first + r)));
      }
      return digests;
    };
    EXPECT_EQ(digests_at(1), digests_at(4)) << name << " is not jobs-invariant";
  }
}

}  // namespace
}  // namespace oasis
