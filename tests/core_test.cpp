#include "src/core/oasis.h"

#include <gtest/gtest.h>

namespace oasis {
namespace {

SimulationConfig SmallConfig() {
  SimulationConfig config;
  config.cluster.num_home_hosts = 3;
  config.cluster.num_consolidation_hosts = 1;
  config.cluster.vms_per_home = 4;
  config.seed = 5;
  return config;
}

TEST(ClusterSimulationTest, RunsAndReturnsTrace) {
  SimulationConfig config = SmallConfig();
  ClusterSimulation sim(config);
  SimulationResult result = sim.Run();
  EXPECT_EQ(result.trace.size(), static_cast<size_t>(config.cluster.TotalVms()));
  EXPECT_GT(result.metrics.baseline_energy, 0.0);
  EXPECT_EQ(result.metrics.timeline.size(), static_cast<size_t>(kIntervalsPerDay));
}

TEST(ClusterSimulationTest, SameSeedSameResult) {
  SimulationConfig config = SmallConfig();
  SimulationResult a = ClusterSimulation(config).Run();
  SimulationResult b = ClusterSimulation(config).Run();
  EXPECT_DOUBLE_EQ(a.metrics.TotalEnergy(), b.metrics.TotalEnergy());
  EXPECT_EQ(a.trace[0], b.trace[0]);
}

TEST(ClusterSimulationTest, DifferentSeedsDiffer) {
  SimulationConfig a_config = SmallConfig();
  SimulationConfig b_config = SmallConfig();
  b_config.seed = 6;
  SimulationResult a = ClusterSimulation(a_config).Run();
  SimulationResult b = ClusterSimulation(b_config).Run();
  EXPECT_NE(a.metrics.TotalEnergy(), b.metrics.TotalEnergy());
}

TEST(ClusterSimulationTest, FixedTraceOverridesGenerator) {
  SimulationConfig config = SmallConfig();
  TraceSet trace(config.cluster.TotalVms(), UserDay{});  // everyone idle
  config.fixed_trace = trace;
  SimulationResult result = ClusterSimulation(config).Run();
  EXPECT_EQ(result.metrics.timeline.back().active_vms, 0);
  EXPECT_GT(result.metrics.EnergySavings(), 0.08);
}

TEST(ClusterSimulationTest, WeekendsQuieterThanWeekdays) {
  SimulationConfig weekday = SmallConfig();
  SimulationConfig weekend = SmallConfig();
  weekend.day = DayKind::kWeekend;
  SimulationResult wd = ClusterSimulation(weekday).Run();
  SimulationResult we = ClusterSimulation(weekend).Run();
  int wd_peak = 0;
  int we_peak = 0;
  for (const auto& s : wd.metrics.timeline) {
    wd_peak = std::max(wd_peak, s.active_vms);
  }
  for (const auto& s : we.metrics.timeline) {
    we_peak = std::max(we_peak, s.active_vms);
  }
  EXPECT_LT(we_peak, wd_peak);
}

}  // namespace
}  // namespace oasis
