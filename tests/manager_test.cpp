#include "src/cluster/manager.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "src/trace/trace_generator.h"
#include "tests/metric_digest.h"

namespace oasis {
namespace {

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

// One user active 09:00-17:00, everyone else always idle.
TraceSet OfficeHoursTrace(int users, int active_users) {
  TraceSet set;
  for (int u = 0; u < users; ++u) {
    UserDay day;
    if (u < active_users) {
      for (int i = IntervalAt(9.0); i < IntervalAt(17.0); ++i) {
        day.SetActive(i, true);
      }
    }
    set.push_back(day);
  }
  return set;
}

TEST(ManagerTest, AllIdleClusterConsolidatesEverythingAndSleeps) {
  ClusterConfig config = SmallCluster(ConsolidationPolicy::kFullToPartial);
  ClusterManager manager(config, UniformTrace(config.TotalVms(), false));
  ClusterMetrics m = manager.Run();
  // Every VM ends up partial on a consolidation host.
  EXPECT_EQ(m.partial_migrations, static_cast<uint64_t>(config.TotalVms()));
  EXPECT_EQ(m.reintegrations, 0u);
  // 4 small homes vs one (load-saturated) consolidation host: modest but
  // clearly positive savings.
  EXPECT_GT(m.EnergySavings(), 0.12);
  // All home hosts asleep nearly all day.
  for (int h = 0; h < config.num_home_hosts; ++h) {
    EXPECT_GT(manager.GetHost(h).ledger().SleepFraction(SimTime::Hours(24)), 0.95);
  }
  // The final snapshot shows zero powered home hosts.
  EXPECT_EQ(m.timeline.back().powered_home_hosts, 0);
  EXPECT_EQ(m.timeline.back().partial_vms, config.TotalVms());
}

TEST(ManagerTest, AllIdleOnlyPartialAlsoWorks) {
  ClusterConfig config = SmallCluster(ConsolidationPolicy::kOnlyPartial);
  ClusterManager manager(config, UniformTrace(config.TotalVms(), false));
  ClusterMetrics m = manager.Run();
  EXPECT_EQ(m.full_migrations, 0u);
  EXPECT_GT(m.EnergySavings(), 0.12);
}

TEST(ManagerTest, AllActiveOnlyPartialNeverMigrates) {
  ClusterConfig config = SmallCluster(ConsolidationPolicy::kOnlyPartial);
  ClusterManager manager(config, UniformTrace(config.TotalVms(), true));
  ClusterMetrics m = manager.Run();
  EXPECT_EQ(m.full_migrations, 0u);
  EXPECT_EQ(m.partial_migrations, 0u);
  EXPECT_EQ(m.host_sleeps, 0u);
  // No consolidation: energy equals the baseline except for the S3 draw of
  // the (never-used) sleeping consolidation hosts, which the baseline does
  // not include.
  EXPECT_NEAR(m.EnergySavings(), 0.0, 0.08);
}

TEST(ManagerTest, AllActiveHybridConsolidatesInFullWhenItFits) {
  // 20 active VMs * 4 GiB = 80 GiB fits one 128 GiB consolidation host, and
  // sleeping four homes for one consolidation host is a clear win.
  ClusterConfig config = SmallCluster(ConsolidationPolicy::kFullToPartial);
  ClusterManager manager(config, UniformTrace(config.TotalVms(), true));
  ClusterMetrics m = manager.Run();
  EXPECT_EQ(m.full_migrations, static_cast<uint64_t>(config.TotalVms()));
  EXPECT_GT(m.EnergySavings(), 0.2);
  // Active VMs never lose resources: all transitions zero-delay (none occur
  // after t=0 here, so the distribution may simply be empty).
  EXPECT_EQ(m.capacity_exhaustions, 0u);
}

TEST(ManagerTest, ZeroDelayForActivationsOnPoweredHomes) {
  // Users work 9-17; their VMs are full at home when they return from
  // overnight consolidation... the 9:00 activation may reintegrate, but all
  // subsequent activity flips (none here) are free. Check the distribution
  // only contains small values.
  ClusterConfig config = SmallCluster(ConsolidationPolicy::kFullToPartial);
  ClusterManager manager(config, OfficeHoursTrace(config.TotalVms(), 8));
  ClusterMetrics m = manager.Run();
  ASSERT_GT(m.transition_delay_s.count(), 0u);
  EXPECT_GE(m.transition_delay_s.Min(), 0.0);
  EXPECT_LT(m.transition_delay_s.Max(), 120.0);
}

TEST(ManagerTest, DeterministicForSameSeedAndTrace) {
  ClusterConfig config = SmallCluster(ConsolidationPolicy::kFullToPartial);
  TraceGenerator gen(TraceGeneratorConfig{}, 99);
  TraceSet trace = gen.GenerateTraceSet(config.TotalVms(), DayKind::kWeekday);
  ClusterManager m1(config, trace);
  ClusterManager m2(config, trace);
  ClusterMetrics r1 = m1.Run();
  ClusterMetrics r2 = m2.Run();
  EXPECT_DOUBLE_EQ(r1.TotalEnergy(), r2.TotalEnergy());
  EXPECT_EQ(r1.full_migrations, r2.full_migrations);
  EXPECT_EQ(r1.partial_migrations, r2.partial_migrations);
  EXPECT_EQ(r1.traffic.NetworkTotal(), r2.traffic.NetworkTotal());
}

TEST(ManagerTest, ReservationsNeverExceedCapacity) {
  ClusterConfig config = SmallCluster(ConsolidationPolicy::kFullToPartial);
  TraceGenerator gen(TraceGeneratorConfig{}, 5);
  ClusterManager manager(config, gen.GenerateTraceSet(config.TotalVms(), DayKind::kWeekday));
  manager.Run();
  for (size_t h = 0; h < manager.num_hosts(); ++h) {
    const ClusterHost& host = manager.GetHost(static_cast<HostId>(h));
    EXPECT_LE(host.reserved_bytes(), host.capacity_bytes()) << "host " << h;
  }
}

TEST(ManagerTest, VmLocationMatchesHostMembership) {
  ClusterConfig config = SmallCluster(ConsolidationPolicy::kNewHome);
  TraceGenerator gen(TraceGeneratorConfig{}, 6);
  ClusterManager manager(config, gen.GenerateTraceSet(config.TotalVms(), DayKind::kWeekday));
  manager.Run();
  for (size_t v = 0; v < manager.num_vms(); ++v) {
    const VmSlot& vm = manager.GetVm(static_cast<VmId>(v));
    const ClusterHost& host = manager.GetHost(vm.location);
    EXPECT_TRUE(host.HasVm(vm.id)) << "vm " << v << " not on host " << vm.location;
  }
}

TEST(ManagerTest, ActiveVmsNeverOnSleepingHosts) {
  ClusterConfig config = SmallCluster(ConsolidationPolicy::kFullToPartial);
  TraceGenerator gen(TraceGeneratorConfig{}, 8);
  ClusterManager manager(config, gen.GenerateTraceSet(config.TotalVms(), DayKind::kWeekday));
  manager.Run();
  for (size_t v = 0; v < manager.num_vms(); ++v) {
    const VmSlot& vm = manager.GetVm(static_cast<VmId>(v));
    if (vm.activity == VmActivity::kActive && !vm.migration_in_flight) {
      EXPECT_NE(manager.GetHost(vm.location).power_state(), HostPowerState::kSleeping)
          << "active vm " << v << " stranded on sleeping host";
    }
  }
}

TEST(ManagerTest, EnergyComponentsArePositiveAndSumCorrectly) {
  ClusterConfig config = SmallCluster(ConsolidationPolicy::kFullToPartial);
  TraceGenerator gen(TraceGeneratorConfig{}, 9);
  ClusterManager manager(config, gen.GenerateTraceSet(config.TotalVms(), DayKind::kWeekday));
  ClusterMetrics m = manager.Run();
  EXPECT_GT(m.home_host_energy, 0.0);
  EXPECT_GT(m.baseline_energy, 0.0);
  EXPECT_DOUBLE_EQ(m.TotalEnergy(),
                   m.home_host_energy + m.consolidation_host_energy + m.memory_server_energy);
  EXPECT_LT(m.EnergySavings(), 1.0);
}

TEST(ManagerTest, TimelineHasOneSnapshotPerInterval) {
  ClusterConfig config = SmallCluster(ConsolidationPolicy::kDefault);
  ClusterManager manager(config, UniformTrace(config.TotalVms(), false));
  ClusterMetrics m = manager.Run();
  EXPECT_EQ(m.timeline.size(), static_cast<size_t>(kIntervalsPerDay));
  for (const IntervalSnapshot& s : m.timeline) {
    EXPECT_LE(s.active_vms, config.TotalVms());
    EXPECT_LE(s.powered_hosts, config.TotalHosts());
    EXPECT_GE(s.powered_hosts, 0);
  }
}

TEST(ManagerTest, DelaysAreNonNegativeAndBounded) {
  ClusterConfig config = SmallCluster(ConsolidationPolicy::kFullToPartial);
  TraceGenerator gen(TraceGeneratorConfig{}, 11);
  ClusterManager manager(config, gen.GenerateTraceSet(config.TotalVms(), DayKind::kWeekday));
  ClusterMetrics m = manager.Run();
  if (m.transition_delay_s.count() > 0) {
    EXPECT_GE(m.transition_delay_s.Min(), 0.0);
    EXPECT_LT(m.transition_delay_s.Max(), 400.0);
  }
}

TEST(ManagerTest, MemoryServersOnlyBurnEnergyWhenHomesSleep) {
  // All-active cluster under OnlyPartial: nobody sleeps, so no memory server
  // should ever be powered.
  ClusterConfig config = SmallCluster(ConsolidationPolicy::kOnlyPartial);
  ClusterManager manager(config, UniformTrace(config.TotalVms(), true));
  ClusterMetrics m = manager.Run();
  EXPECT_DOUBLE_EQ(m.memory_server_energy, 0.0);
}

TEST(ManagerTest, MemoryServerPowerScalesTable3) {
  // A cheaper memory server must never hurt savings (Table 3's premise).
  ClusterConfig expensive = SmallCluster(ConsolidationPolicy::kFullToPartial);
  ClusterConfig cheap = expensive;
  cheap.memory_server_power = MemoryServerProfile::WithPower(1.0);
  TraceGenerator gen(TraceGeneratorConfig{}, 13);
  TraceSet trace = gen.GenerateTraceSet(expensive.TotalVms(), DayKind::kWeekday);
  ClusterMetrics m_expensive = ClusterManager(expensive, trace).Run();
  ClusterMetrics m_cheap = ClusterManager(cheap, trace).Run();
  EXPECT_GT(m_cheap.EnergySavings(), m_expensive.EnergySavings());
}

class PolicyTest : public ::testing::TestWithParam<ConsolidationPolicy> {};

TEST_P(PolicyTest, RunsCleanlyOnRealisticTrace) {
  ClusterConfig config = SmallCluster(GetParam());
  TraceGenerator gen(TraceGeneratorConfig{}, 21);
  ClusterManager manager(config, gen.GenerateTraceSet(config.TotalVms(), DayKind::kWeekday));
  ClusterMetrics m = manager.Run();
  EXPECT_GT(m.baseline_energy, 0.0);
  EXPECT_GE(m.EnergySavings(), -0.05);
  EXPECT_LE(m.EnergySavings(), 1.0);
}

TEST_P(PolicyTest, OnlyPartialNeverDoesFullMigrations) {
  if (GetParam() != ConsolidationPolicy::kOnlyPartial) {
    GTEST_SKIP();
  }
  ClusterConfig config = SmallCluster(GetParam());
  TraceGenerator gen(TraceGeneratorConfig{}, 23);
  ClusterManager manager(config, gen.GenerateTraceSet(config.TotalVms(), DayKind::kWeekday));
  ClusterMetrics m = manager.Run();
  EXPECT_EQ(m.full_migrations, 0u);
  EXPECT_EQ(m.traffic.Total(TrafficCategory::kFullMigration), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyTest,
                         ::testing::Values(ConsolidationPolicy::kOnlyPartial,
                                           ConsolidationPolicy::kDefault,
                                           ConsolidationPolicy::kFullToPartial,
                                           ConsolidationPolicy::kNewHome),
                         [](const auto& suite_info) {
                           return ConsolidationPolicyName(suite_info.param);
                         });

// Pins a realistic day at 1-, 5- and 30-minute planning intervals, so a
// change to how rounds read the trace is caught on all three paths: 1-minute
// rounds revisit a trace interval, 5-minute rounds visit each interval once,
// 30-minute rounds skip five of every six.
TEST(ManagerTest, PlanningIntervalDigestsArePinned) {
  struct Pin {
    double minutes;
    uint64_t digest;
  };
  const Pin pins[] = {
      {1.0, 0x2c12241aaad37446ull},
      {5.0, 0xe89f2085d138f9eeull},
      {30.0, 0x58eef9060ae825bbull},
  };
  ClusterConfig config = SmallCluster(ConsolidationPolicy::kFullToPartial);
  config.num_home_hosts = 6;
  config.vms_per_home = 12;
  // Half as many user-days as VMs, so VM u and u + 36 share a user.
  TraceGenerator gen(TraceGeneratorConfig{}, 29);
  TraceSet trace = gen.GenerateTraceSet(config.TotalVms() / 2, DayKind::kWeekday);
  for (const Pin& pin : pins) {
    config.planning_interval = SimTime::Minutes(pin.minutes);
    ClusterMetrics m = ClusterManager(config, trace).Run();
    // Partial upkeep's growth and exhaustion paths both ran.
    EXPECT_GT(m.partial_migrations, 0u) << pin.minutes << " min";
    EXPECT_GT(m.capacity_exhaustions, 0u) << pin.minutes << " min";
    EXPECT_EQ(testing::DigestMetrics(m), pin.digest) << pin.minutes << " min";
  }
}

// A VM allocation at or below the 16 MiB working-set floor, or a distribution
// whose draws cannot land under the allocation, would make the working-set
// sampler reject every draw and spin; Validate refuses both up front.
TEST(ManagerTest, ValidateRejectsWorkingSetsThatCannotFit) {
  ClusterConfig config = SmallCluster(ConsolidationPolicy::kFullToPartial);
  ASSERT_TRUE(config.Validate().ok());
  config.vm_memory_bytes = 8 * kMiB;
  Status status = config.Validate();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("working-set floor"), std::string::npos) << status.message();
  config.vm_memory_bytes = 16 * kMiB;
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
  config.vm_memory_bytes = 64 * kMiB;
  EXPECT_TRUE(config.Validate().ok());
  config.working_set.mean_mib = 500.0;
  config.working_set.stddev_mib = 10.0;
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
  config = SmallCluster(ConsolidationPolicy::kFullToPartial);
  config.working_set.stddev_mib = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
  config.working_set.stddev_mib = -1.0;
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
  config = SmallCluster(ConsolidationPolicy::kFullToPartial);
  config.working_set.floor_mib = std::numeric_limits<double>::infinity();
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(ManagerTest, PolicyNames) {
  EXPECT_STREQ(ConsolidationPolicyName(ConsolidationPolicy::kOnlyPartial), "OnlyPartial");
  EXPECT_STREQ(ConsolidationPolicyName(ConsolidationPolicy::kDefault), "Default");
  EXPECT_STREQ(ConsolidationPolicyName(ConsolidationPolicy::kFullToPartial), "FulltoPartial");
  EXPECT_STREQ(ConsolidationPolicyName(ConsolidationPolicy::kNewHome), "NewHome");
}

}  // namespace
}  // namespace oasis
