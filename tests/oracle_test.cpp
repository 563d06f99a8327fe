// Metamorphic pins on the offline oracle (src/cluster/oracle.h) and the
// optimality-gap harness built on it:
//
//   * determinism — the solve is a pure function of (config, trace, seed):
//     same inputs, same Digest(), across reruns and across OASIS_JOBS;
//   * bound ordering — relaxed interval bound <= best schedule <= baseline,
//     by construction, on every input;
//   * gap soundness — on the quickstart day every online strategy's gap
//     against the oracle is non-negative (the oracle's relaxations only ever
//     err in its favor, so no online policy can appear to beat hindsight);
//   * strategy ordering — the greedy planner's weekday savings strictly
//     beat the local-threshold ablation's, and clear the paper-scale floor.

#include "src/cluster/oracle.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "src/check/check.h"
#include "src/cluster/strategy.h"
#include "src/core/oasis.h"
#include "src/exp/exp.h"
#include "tests/metric_digest.h"

namespace oasis {
namespace {

using check::CheckMode;
using check::InvariantChecker;

class OracleTest : public ::testing::Test {
 protected:
  void SetUp() override { InvariantChecker::Install(&checker_); }
  void TearDown() override {
    InvariantChecker::Install(nullptr);
    EXPECT_EQ(checker_.violation_count(), 0u)
        << "invariant violations recorded during an oracle-harness run";
  }

  InvariantChecker checker_{CheckMode::kWarn};
};

TEST_F(OracleTest, SolveIsSeedDeterministicAndBoundsAreOrdered) {
  // The quickstart day: the default paper rack, one weekday.
  SimulationConfig config;
  SimulationResult run = ClusterSimulation(config).Run();

  OfflineOracle solver(config.cluster);
  OracleResult a = solver.Solve(run.trace, config.seed);
  OracleResult b = solver.Solve(run.trace, config.seed);
  EXPECT_EQ(a.Digest(), b.Digest()) << "same seed, different oracle solve";
  EXPECT_DOUBLE_EQ(a.schedule_energy, b.schedule_energy);
  EXPECT_DOUBLE_EQ(a.relaxed_lower_bound, b.relaxed_lower_bound);

  EXPECT_GT(a.relaxed_lower_bound, 0.0);
  EXPECT_LE(a.relaxed_lower_bound, a.schedule_energy);
  EXPECT_LT(a.schedule_energy, a.baseline_energy);
  EXPECT_GT(a.ScheduleSavings(), 0.0);

  // A different seed redraws the working sets and the annealer's walk; the
  // energies move, the ordering must not.
  OracleResult c = solver.Solve(run.trace, config.seed + 1);
  EXPECT_LE(c.relaxed_lower_bound, c.schedule_energy);
  EXPECT_LT(c.schedule_energy, c.baseline_energy);
}

TEST_F(OracleTest, SolveIsJobsInvariant) {
  // The traces the runner hands back are jobs-invariant, and the oracle
  // touches no global stream — so the per-repetition oracle digests must be
  // identical whether the repetitions ran serially or on a worker pool.
  SimulationConfig config;
  auto oracle_digests_at = [&config](int jobs) {
    exp::ExperimentPlan plan;
    exp::RepetitionSpan span = plan.AddRepetitions(config, 2);
    std::vector<SimulationResult> results = exp::RunParallel(plan, jobs);
    OfflineOracle solver(config.cluster);
    std::vector<uint64_t> digests;
    for (size_t r = 0; r < static_cast<size_t>(span.count); ++r) {
      uint64_t seed = exp::ExperimentPlan::DeriveSeed(config.seed, static_cast<int>(r));
      digests.push_back(solver.Solve(results.at(span.first + r).trace, seed).Digest());
    }
    return digests;
  };
  EXPECT_EQ(oracle_digests_at(1), oracle_digests_at(4));
}

TEST_F(OracleTest, GapIsNonNegativeForEveryStrategyAndGreedyLeadsLocal) {
  // One quickstart day per registered strategy, all driven by the same seed
  // and therefore the same trace; one oracle solve bounds them all.
  SimulationConfig base;
  OfflineOracle solver(base.cluster);

  bool solved = false;
  OracleResult oracle;
  std::map<std::string, double> savings;
  for (const std::string& name : RegisteredStrategyNames()) {
    SimulationConfig config = base;
    config.cluster.strategy_name = name;
    SimulationResult result = ClusterSimulation(config).Run();
    if (!solved) {
      oracle = solver.Solve(result.trace, base.seed);
      solved = true;
    }
    double gap = OptimalityGap(result.metrics.TotalEnergy(), oracle);
    EXPECT_GE(gap, 0.0) << name << " appears to beat the hindsight oracle "
                        << "(gap " << gap << ") — the bound is unsound";
    savings[name] = result.metrics.EnergySavings();
  }

  // The ablation's headline ordering on a weekday: the paper's greedy
  // planner beats gate-free local parking, and clears the local rule's
  // paper-scale floor.
  ASSERT_TRUE(savings.count("oasis-greedy"));
  ASSERT_TRUE(savings.count("local-threshold"));
  EXPECT_GT(savings["oasis-greedy"], savings["local-threshold"]);
  EXPECT_GT(savings["oasis-greedy"], 0.111);
}

TEST_F(OracleTest, GapStaysNonNegativeOnAHeterogeneousDay) {
  // The mixed-generation rack from bench/heterogeneous_fleet: the oracle's
  // per-class DayModel prices each home at its own curve and never sleeps
  // the legacy-no-s3 band, so its bound must stay a sound lower bound for
  // every online strategy on the same fleet — and the bound ordering must
  // survive the mix.
  SimulationConfig base;
  base.cluster.fleet.segments = {
      {"table1", 10}, {"legacy-no-s3", 10}, {"efficient-v2", 14}};
  ASSERT_TRUE(base.cluster.Validate().ok());
  OfflineOracle solver(base.cluster);

  bool solved = false;
  OracleResult oracle;
  for (const std::string& name : RegisteredStrategyNames()) {
    SimulationConfig config = base;
    config.cluster.strategy_name = name;
    SimulationResult result = ClusterSimulation(config).Run();
    if (!solved) {
      oracle = solver.Solve(result.trace, base.seed);
      solved = true;
      EXPECT_GT(oracle.relaxed_lower_bound, 0.0);
      EXPECT_LE(oracle.relaxed_lower_bound, oracle.schedule_energy);
      EXPECT_LT(oracle.schedule_energy, oracle.baseline_energy);
      EXPECT_GT(oracle.ScheduleSavings(), 0.0);
    }
    double gap = OptimalityGap(result.metrics.TotalEnergy(), oracle);
    EXPECT_GE(gap, 0.0)
        << name << " appears to beat the hindsight oracle on a mixed fleet "
        << "(gap " << gap << ") — the per-class bound is unsound";
  }
}

}  // namespace
}  // namespace oasis
