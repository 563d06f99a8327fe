// Unit tests for the datacenter hierarchy (src/dc): topology expansion and
// seed derivation, the OASIS_DC_RACKS override convention, the coordinator's
// drain sweep on hand-built timelines, and the merged ledger.
//
// Everything here runs on synthetic DatacenterRuns — no cluster simulation —
// so the coordinator's arithmetic (S3 credits, wire-energy charges, cap and
// fault exclusions) is pinned against closed-form expectations. The
// whole-simulation properties live in dc_metamorphic_test.cpp.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <vector>

#include "src/dc/coordinator.h"
#include "src/dc/ledger.h"
#include "src/dc/runner.h"
#include "src/dc/topology.h"
#include "src/power/power_model.h"

namespace oasis {
namespace dc {
namespace {

constexpr double kIntervalS = 300.0;

IntervalSnapshot Snap(double t_s, int partial_vms, int powered_cons) {
  IntervalSnapshot s;
  s.time = SimTime::Seconds(t_s);
  s.partial_vms = partial_vms;
  s.powered_consolidation_hosts = powered_cons;
  return s;
}

// A rack whose parked population is `parked[t]` with `powered_cons`
// consolidation hosts powered every interval.
RackResult SyntheticRack(int rack, int pod, const std::vector<int>& parked,
                         int powered_cons) {
  RackResult result;
  result.rack = rack;
  result.pod = pod;
  for (size_t t = 0; t < parked.size(); ++t) {
    result.metrics.timeline.push_back(
        Snap(static_cast<double>(t) * kIntervalS, parked[t], powered_cons));
  }
  return result;
}

// Fixed thresholds so every expectation below is closed-form (auto
// calibration is exercised by the bench and the metamorphic suite).
CoordinatorConfig DrainConfig() {
  CoordinatorConfig config;
  config.mode = CoordinatorMode::kAssisted;
  config.near_empty_max_parked = 4;
  config.min_drain_intervals = 3;
  config.cons_host_vm_capacity = 64;
  return config;
}

Watts S3Delta() {
  const HostPowerProfile power;
  return power.idle_watts - power.sleep_watts;
}

TEST(DatacenterTopologyTest, ExpandsPodMajorWithDerivedSeeds) {
  DatacenterConfig config;
  config.total_racks = 5;
  config.racks_per_pod = 2;
  ASSERT_EQ(config.NumPods(), 3);
  ASSERT_EQ(config.TotalUsers(), 5ll * config.rack.users());

  StatusOr<DatacenterTopology> topology = DatacenterTopology::Build(config);
  ASSERT_TRUE(topology.ok()) << topology.status().message();
  const std::vector<RackSpec>& racks = topology.value().racks();
  ASSERT_EQ(racks.size(), 5u);
  for (int r = 0; r < 5; ++r) {
    EXPECT_EQ(racks[r].rack, r);
    EXPECT_EQ(racks[r].pod, r / 2);
    EXPECT_EQ(racks[r].sim.seed, DatacenterTopology::RackSeed(config.seed, r));
    EXPECT_EQ(racks[r].sim.cluster.num_home_hosts, config.rack.home_hosts);
    EXPECT_EQ(racks[r].sim.cluster.num_consolidation_hosts,
              config.rack.consolidation_hosts);
  }
}

TEST(DatacenterTopologyTest, RackSeedIsStableAcrossRackCounts) {
  DatacenterConfig small;
  small.total_racks = 8;
  DatacenterConfig big = small;
  big.total_racks = 256;

  StatusOr<DatacenterTopology> small_topo = DatacenterTopology::Build(small);
  StatusOr<DatacenterTopology> big_topo = DatacenterTopology::Build(big);
  ASSERT_TRUE(small_topo.ok());
  ASSERT_TRUE(big_topo.ok());
  // A smoke grid is a prefix of the full datacenter: rack 7 simulates the
  // identical day in both.
  for (int r = 0; r < 8; ++r) {
    EXPECT_EQ(small_topo.value().racks()[r].sim.seed,
              big_topo.value().racks()[r].sim.seed);
  }
  // And adjacent racks get decorrelated, distinct streams.
  EXPECT_NE(DatacenterTopology::RackSeed(1, 0), DatacenterTopology::RackSeed(1, 1));
  EXPECT_NE(DatacenterTopology::RackSeed(1, 0), DatacenterTopology::RackSeed(2, 0));
}

TEST(DatacenterTopologyTest, ValidateRejectsBadConfigs) {
  DatacenterConfig config;
  config.total_racks = 0;
  EXPECT_FALSE(DatacenterTopology::Build(config).ok());

  config = DatacenterConfig();
  config.racks_per_pod = 0;
  EXPECT_FALSE(DatacenterTopology::Build(config).ok());

  config = DatacenterConfig();
  config.rack.strategy_name = "no-such-strategy";
  EXPECT_FALSE(DatacenterTopology::Build(config).ok());

  config = DatacenterConfig();
  config.coordinator.sponsor_fill_ratio = 0.0;
  EXPECT_FALSE(DatacenterTopology::Build(config).ok());

  config = DatacenterConfig();
  config.coordinator.cap_events_per_rack_day = 1.0;  // cap events, no cap watts
  EXPECT_FALSE(DatacenterTopology::Build(config).ok());
}

TEST(DatacenterEnvTest, RackCountOverrideParses) {
  setenv("OASIS_DC_RACKS", "8", 1);
  DatacenterConfig config;
  ApplyDatacenterEnvOverrides(&config);
  unsetenv("OASIS_DC_RACKS");
  EXPECT_EQ(config.total_racks, 8);
}

TEST(CoordinatorTest, OffModeReturnsZeroStats) {
  CoordinatorConfig config = DrainConfig();
  config.mode = CoordinatorMode::kOff;
  DatacenterRun run;
  run.racks.push_back(SyntheticRack(0, 0, {2, 2, 2}, 1));
  CoordinatorStats stats = GlobalCoordinator(config).Coordinate(run);
  EXPECT_EQ(stats.drains_started, 0u);
  EXPECT_EQ(stats.energy_saved, 0.0);
  EXPECT_EQ(stats.cross_rack_traffic_bytes, 0u);
}

TEST(CoordinatorTest, GlobalGreedyCreditsIdealPacking) {
  DatacenterRun run;
  // 4 parked VMs across two racks fit one 64-VM host; two are powered.
  run.racks.push_back(SyntheticRack(0, 0, std::vector<int>(10, 2), 1));
  run.racks.push_back(SyntheticRack(1, 0, std::vector<int>(10, 2), 1));
  CoordinatorConfig config = DrainConfig();
  config.mode = CoordinatorMode::kGlobalGreedy;
  CoordinatorStats stats = GlobalCoordinator(config).Coordinate(run);
  EXPECT_DOUBLE_EQ(stats.energy_saved, 10.0 * S3Delta() * kIntervalS);
  EXPECT_EQ(stats.drains_started, 0u);  // the bound models no mechanism
  EXPECT_EQ(stats.migration_energy, 0.0);
}

TEST(CoordinatorTest, AssistedDrainsNearEmptyRackIntoPodSponsor) {
  DatacenterRun run;
  run.racks.push_back(SyntheticRack(0, 0, std::vector<int>(10, 2), 1));
  run.racks.push_back(SyntheticRack(1, 0, std::vector<int>(10, 10), 1));
  const CoordinatorConfig config = DrainConfig();
  CoordinatorStats stats = GlobalCoordinator(config).Coordinate(run);

  // Rack 0 (2 parked <= near-empty 4) drains into rack 1 at t=0, then earns
  // the S3 credit of its one consolidation host for the 9 remaining
  // intervals. Rack 1 (10 parked) never qualifies.
  EXPECT_EQ(stats.drains_started, 1u);
  EXPECT_EQ(stats.drain_returns, 0u);
  EXPECT_EQ(stats.vms_drained, 2u);
  EXPECT_EQ(stats.drain_intervals, 9u);
  EXPECT_DOUBLE_EQ(stats.energy_saved, 9.0 * S3Delta() * kIntervalS);
  EXPECT_EQ(stats.cross_rack_traffic_bytes, 2u * config.drain_bytes_per_vm);
  EXPECT_DOUBLE_EQ(stats.migration_energy,
                   ToGiB(2u * config.drain_bytes_per_vm) * config.wire_joules_per_gib);
  EXPECT_GT(stats.NetSaved(), 0.0);
}

TEST(CoordinatorTest, DrainReturnsWhenDemandRisesAfterHysteresis) {
  std::vector<int> parked(10, 2);
  for (size_t t = 5; t < parked.size(); ++t) {
    parked[t] = 10;  // demand returns mid-day
  }
  DatacenterRun run;
  run.racks.push_back(SyntheticRack(0, 0, parked, 1));
  run.racks.push_back(SyntheticRack(1, 0, std::vector<int>(10, 10), 1));
  const CoordinatorConfig config = DrainConfig();
  CoordinatorStats stats = GlobalCoordinator(config).Coordinate(run);

  // Drained at t=0, credited t=1..4, returned at t=5 (past the 3-interval
  // hysteresis window), charged the move back at the then-current demand.
  EXPECT_EQ(stats.drains_started, 1u);
  EXPECT_EQ(stats.drain_returns, 1u);
  EXPECT_EQ(stats.drain_intervals, 4u);
  EXPECT_DOUBLE_EQ(stats.energy_saved, 4.0 * S3Delta() * kIntervalS);
  EXPECT_EQ(stats.cross_rack_traffic_bytes, (2u + 10u) * config.drain_bytes_per_vm);
}

TEST(CoordinatorTest, HysteresisHoldsDrainThroughShortSpikes) {
  std::vector<int> parked(10, 2);
  parked[1] = 10;
  parked[2] = 10;  // spike shorter than min_drain_intervals
  DatacenterRun run;
  run.racks.push_back(SyntheticRack(0, 0, parked, 1));
  run.racks.push_back(SyntheticRack(1, 0, std::vector<int>(10, 10), 1));
  CoordinatorStats stats = GlobalCoordinator(DrainConfig()).Coordinate(run);
  EXPECT_EQ(stats.drains_started, 1u);
  EXPECT_EQ(stats.drain_returns, 0u);
  EXPECT_EQ(stats.drain_intervals, 9u);
}

TEST(CoordinatorTest, FaultedRackNeverSponsors) {
  DatacenterRun run;
  run.racks.push_back(SyntheticRack(0, 0, std::vector<int>(10, 2), 1));
  run.racks.push_back(SyntheticRack(1, 0, std::vector<int>(10, 10), 1));
  run.racks[1].metrics.faults_injected = 1;
  CoordinatorStats stats = GlobalCoordinator(DrainConfig()).Coordinate(run);
  // The only candidate sponsor crashed hosts today: rack 0 retries (and is
  // refused) every interval.
  EXPECT_EQ(stats.drains_started, 0u);
  EXPECT_EQ(stats.fault_excluded_sponsors, 10u);
  EXPECT_EQ(stats.energy_saved, 0.0);
}

TEST(CoordinatorTest, CapWindowsAreSampledDeterministically) {
  DatacenterRun run;
  run.config.seed = 42;
  run.racks.push_back(SyntheticRack(0, 0, std::vector<int>(20, 2), 1));
  run.racks.push_back(SyntheticRack(1, 0, std::vector<int>(20, 10), 1));
  CoordinatorConfig config = DrainConfig();
  config.rack_power_cap_watts = 1000.0;
  config.cap_events_per_rack_day = 1.0;  // exactly one window per rack
  const GlobalCoordinator coordinator(config);
  CoordinatorStats a = GlobalCoordinator(config).Coordinate(run);
  CoordinatorStats b = coordinator.Coordinate(run);
  EXPECT_EQ(a.cap_windows, 2u);
  // Same run, same stats — the windows come from (seed, rack), not from any
  // per-call state.
  EXPECT_EQ(a.cap_windows, b.cap_windows);
  EXPECT_EQ(a.drains_started, b.drains_started);
  EXPECT_EQ(a.cap_blocked_sponsorships, b.cap_blocked_sponsorships);
  EXPECT_EQ(a.energy_saved, b.energy_saved);
}

TEST(CoordinatorTest, StatsAreInvariantUnderRackPermutation) {
  DatacenterRun run;
  run.racks.push_back(SyntheticRack(0, 0, std::vector<int>(10, 2), 1));
  run.racks.push_back(SyntheticRack(1, 0, std::vector<int>(10, 10), 1));
  run.racks.push_back(SyntheticRack(2, 1, std::vector<int>(10, 3), 1));
  run.racks.push_back(SyntheticRack(3, 1, std::vector<int>(10, 20), 1));
  DatacenterRun permuted = run;
  std::reverse(permuted.racks.begin(), permuted.racks.end());

  const GlobalCoordinator coordinator(DrainConfig());
  CoordinatorStats a = coordinator.Coordinate(run);
  CoordinatorStats b = coordinator.Coordinate(permuted);
  EXPECT_EQ(DatacenterLedger::Build(run, a).Digest(),
            DatacenterLedger::Build(permuted, b).Digest());
  EXPECT_GE(a.drains_started, 1u);  // the property is non-vacuous
}

TEST(DatacenterLedgerTest, BuildSortsRowsAndSumsTotals) {
  DatacenterRun run;
  run.config.total_racks = 3;
  run.config.racks_per_pod = 2;
  // Arrival order 2, 0, 1 — rows must come out 0, 1, 2.
  run.racks.push_back(SyntheticRack(2, 1, {1}, 1));
  run.racks.push_back(SyntheticRack(0, 0, {1}, 1));
  run.racks.push_back(SyntheticRack(1, 0, {1}, 1));
  for (size_t i = 0; i < run.racks.size(); ++i) {
    run.racks[i].metrics.home_host_energy = 100.0 * (run.racks[i].rack + 1);
    run.racks[i].metrics.baseline_energy = 1000.0;
    run.racks[i].metrics.full_migrations = 5;
    run.racks[i].metrics.faults_injected = 1;
  }

  DatacenterLedger ledger = DatacenterLedger::Build(run, CoordinatorStats());
  ASSERT_EQ(ledger.racks.size(), 3u);
  EXPECT_EQ(ledger.racks[0].rack, 0);
  EXPECT_EQ(ledger.racks[1].rack, 1);
  EXPECT_EQ(ledger.racks[2].rack, 2);
  ASSERT_EQ(ledger.pods.size(), 2u);
  EXPECT_EQ(ledger.pods[0].racks, 2);
  EXPECT_EQ(ledger.pods[1].racks, 1);
  EXPECT_DOUBLE_EQ(ledger.pods[0].total_energy, 100.0 + 200.0);
  EXPECT_DOUBLE_EQ(ledger.total_energy, 600.0);
  EXPECT_DOUBLE_EQ(ledger.baseline_energy, 3000.0);
  EXPECT_EQ(ledger.total_migrations, 15u);
  EXPECT_EQ(ledger.total_faults, 3u);
  EXPECT_EQ(ledger.total_users, 3ll * run.config.rack.users());
  EXPECT_DOUBLE_EQ(ledger.LocalSavings(), 1.0 - 600.0 / 3000.0);
  // No coordinator contribution: the two savings figures coincide.
  EXPECT_DOUBLE_EQ(ledger.CoordinatedSavings(), ledger.LocalSavings());
}

TEST(DatacenterLedgerTest, DigestIsPermutationInvariantAndFieldSensitive) {
  DatacenterRun run;
  run.racks.push_back(SyntheticRack(0, 0, {2, 2}, 1));
  run.racks.push_back(SyntheticRack(1, 0, {3, 3}, 1));
  run.racks[0].metrics.home_host_energy = 10.0;
  run.racks[1].metrics.home_host_energy = 20.0;
  DatacenterRun permuted = run;
  std::swap(permuted.racks[0], permuted.racks[1]);

  CoordinatorStats stats;
  stats.drains_started = 1;
  const uint64_t digest = DatacenterLedger::Build(run, stats).Digest();
  EXPECT_EQ(digest, DatacenterLedger::Build(permuted, stats).Digest());

  run.racks[1].metrics.host_wakes += 1;
  EXPECT_NE(digest, DatacenterLedger::Build(run, stats).Digest());
  run.racks[1].metrics.host_wakes -= 1;
  stats.vms_drained = 7;
  EXPECT_NE(digest, DatacenterLedger::Build(run, stats).Digest());
}

}  // namespace
}  // namespace dc
}  // namespace oasis
