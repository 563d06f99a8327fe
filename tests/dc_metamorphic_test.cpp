// Metamorphic properties of the datacenter shard runner — the whole-system
// counterpart of tests/dc_test.cpp's synthetic-timeline units.
//
// The properties are phrased as digest equalities over real rack-day
// simulations (tests/metric_digest.h for per-rack metrics, the ledger's own
// Digest() for the merged view):
//
//   * OASIS_JOBS identity: ShardRunner(1) and ShardRunner(4) produce
//     bit-identical rack results, coordinator stats, and merged ledger, and
//     byte-identical metrics exports under per-rack "dc.rack<i>." names;
//   * rack-permutation invariance: shuffling the result array changes
//     nothing downstream (coordinator sweep, ledger, digest);
//   * coordinator-off decomposition: with the drain tier off, the
//     datacenter is exactly the sum of independent rack simulations.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/oasis.h"
#include "src/dc/coordinator.h"
#include "src/dc/ledger.h"
#include "src/dc/runner.h"
#include "src/dc/topology.h"
#include "src/obs/metrics.h"
#include "tests/metric_digest.h"

namespace oasis {
namespace dc {
namespace {

// Small but fully featured: two pods, faults on, cap windows on — every
// coordinator code path can trigger, and a rack day stays ~milliseconds.
DatacenterConfig SmallDatacenter() {
  DatacenterConfig config;
  config.total_racks = 4;
  config.racks_per_pod = 2;
  config.rack.home_hosts = 4;
  config.rack.consolidation_hosts = 2;
  config.rack.vms_per_home = 5;
  config.rack.fault.enabled = true;
  config.rack.fault.host_crash_per_hour = 0.02;
  config.coordinator.rack_power_cap_watts = 3200.0;
  config.coordinator.cap_events_per_rack_day = 0.25;
  return config;
}

DatacenterRun RunSmall(const DatacenterConfig& config, int jobs) {
  StatusOr<DatacenterTopology> topology = DatacenterTopology::Build(config);
  EXPECT_TRUE(topology.ok()) << topology.status().message();
  return ShardRunner(jobs).Run(topology.value());
}

uint64_t LedgerDigest(const DatacenterRun& run) {
  const GlobalCoordinator coordinator(run.config.coordinator);
  return DatacenterLedger::Build(run, coordinator.Coordinate(run)).Digest();
}

TEST(DcMetamorphicTest, JobsOneAndFourProduceIdenticalResults) {
  const DatacenterConfig config = SmallDatacenter();
  DatacenterRun serial = RunSmall(config, 1);
  DatacenterRun parallel = RunSmall(config, 4);

  ASSERT_EQ(serial.racks.size(), parallel.racks.size());
  for (size_t i = 0; i < serial.racks.size(); ++i) {
    EXPECT_EQ(serial.racks[i].rack, parallel.racks[i].rack);
    EXPECT_EQ(serial.racks[i].seed, parallel.racks[i].seed);
    EXPECT_EQ(testing::DigestMetrics(serial.racks[i].metrics),
              testing::DigestMetrics(parallel.racks[i].metrics))
        << "rack " << serial.racks[i].rack << " diverged across job counts";
  }
  // The merged view — ledger rows, totals, and all coordinator counters —
  // folds to the same digest.
  EXPECT_EQ(LedgerDigest(serial), LedgerDigest(parallel));
}

// The global metrics export of one ShardRunner day at `jobs`.
std::string MetricsCsv(int jobs) {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  metrics.ResetValues();
  metrics.set_enabled(true);
  RunSmall(SmallDatacenter(), jobs);
  std::ostringstream csv;
  metrics.WriteCsv(csv);
  metrics.set_enabled(false);
  metrics.ResetValues();
  return csv.str();
}

TEST(DcMetamorphicTest, MetricsExportIsJobsInvariantUnderRackNamespaces) {
  const std::string serial = MetricsCsv(1);
  EXPECT_EQ(MetricsCsv(4), serial);

  // Every row after the header belongs to one rack's "dc.rack<i>."
  // namespace, and every rack contributed rows.
  std::istringstream rows(serial);
  std::string row;
  ASSERT_TRUE(std::getline(rows, row));
  std::set<int> racks;
  int count = 0;
  while (std::getline(rows, row)) {
    ++count;
    ASSERT_EQ(row.rfind("dc.rack", 0), 0u) << row;
    size_t digits = 0;
    while (std::isdigit(static_cast<unsigned char>(row[7 + digits]))) {
      ++digits;
    }
    ASSERT_GT(digits, 0u) << row;
    ASSERT_EQ(row[7 + digits], '.') << row;
    racks.insert(std::stoi(row.substr(7, digits)));
  }
  EXPECT_GT(count, 0) << "no metrics recorded; test is vacuous";
  EXPECT_EQ(racks, (std::set<int>{0, 1, 2, 3}));
}

TEST(DcMetamorphicTest, MergedLedgerIsInvariantUnderRackPermutation) {
  DatacenterRun run = RunSmall(SmallDatacenter(), 2);
  const uint64_t reference = LedgerDigest(run);

  DatacenterRun reversed = run;
  std::reverse(reversed.racks.begin(), reversed.racks.end());
  EXPECT_EQ(LedgerDigest(reversed), reference);

  // An interior swap as well, so the property is not just about reversal.
  DatacenterRun swapped = run;
  std::swap(swapped.racks[1], swapped.racks[2]);
  EXPECT_EQ(LedgerDigest(swapped), reference);
}

TEST(DcMetamorphicTest, CoordinatorOffEqualsSumOfIndependentRackRuns) {
  DatacenterConfig config = SmallDatacenter();
  config.coordinator.mode = CoordinatorMode::kOff;
  config.coordinator.rack_power_cap_watts = 0.0;
  config.coordinator.cap_events_per_rack_day = 0.0;

  StatusOr<DatacenterTopology> topology = DatacenterTopology::Build(config);
  ASSERT_TRUE(topology.ok()) << topology.status().message();
  DatacenterRun run = ShardRunner(2).Run(topology.value());

  // Each rack, simulated on its own from the spec the topology handed out,
  // reproduces the shard's result exactly: the runner adds nothing and the
  // racks share nothing.
  double energy_sum = 0.0;
  ASSERT_EQ(run.racks.size(), topology.value().racks().size());
  for (size_t i = 0; i < run.racks.size(); ++i) {
    const RackSpec& spec = topology.value().racks()[i];
    SimulationResult independent = ClusterSimulation(spec.sim).Run();
    EXPECT_EQ(testing::DigestMetrics(run.racks[i].metrics),
              testing::DigestMetrics(independent.metrics))
        << "rack " << spec.rack << " is not independent";
    energy_sum += independent.metrics.TotalEnergy();
  }

  const GlobalCoordinator coordinator(config.coordinator);
  CoordinatorStats stats = coordinator.Coordinate(run);
  EXPECT_EQ(stats.drains_started, 0u);
  EXPECT_EQ(stats.energy_saved, 0.0);

  DatacenterLedger ledger = DatacenterLedger::Build(run, stats);
  EXPECT_DOUBLE_EQ(ledger.total_energy, energy_sum);
  EXPECT_DOUBLE_EQ(ledger.CoordinatedSavings(), ledger.LocalSavings());
}

}  // namespace
}  // namespace dc
}  // namespace oasis
