#include "src/cluster/host.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "src/common/rng.h"

namespace oasis {
namespace {

ClusterConfig TestConfig() {
  ClusterConfig config;
  config.host_memory_bytes = 128 * kGiB;
  return config;
}

TEST(ClusterHostTest, InitialState) {
  ClusterConfig config = TestConfig();
  ClusterHost powered(0, HostRole::kHome, config, true);
  ClusterHost asleep(1, HostRole::kConsolidation, config, false);
  EXPECT_TRUE(powered.IsPowered());
  EXPECT_TRUE(asleep.IsAsleep());
  EXPECT_EQ(powered.capacity_bytes(), 128 * kGiB);
  EXPECT_EQ(powered.reserved_bytes(), 0u);
  EXPECT_FALSE(powered.HasVms());
}

TEST(ClusterHostTest, ReserveRelease) {
  ClusterHost host(0, HostRole::kHome, TestConfig(), true);
  host.Reserve(100 * kGiB);
  EXPECT_EQ(host.AvailableBytes(), 28 * kGiB);
  EXPECT_TRUE(host.CanFit(28 * kGiB));
  EXPECT_FALSE(host.CanFit(28 * kGiB + 1));
  host.Release(50 * kGiB);
  EXPECT_EQ(host.reserved_bytes(), 50 * kGiB);
}

TEST(ClusterHostTest, SleepTakesSuspendLatency) {
  Simulator sim;
  ClusterHost host(0, HostRole::kHome, TestConfig(), true);
  host.RequestSleep(sim);
  EXPECT_EQ(host.power_state(), HostPowerState::kSuspending);
  sim.RunUntil(SimTime::Seconds(3.0));
  EXPECT_EQ(host.power_state(), HostPowerState::kSuspending);
  sim.RunUntil(SimTime::Seconds(3.2));
  EXPECT_TRUE(host.IsAsleep());
}

TEST(ClusterHostTest, WakeTakesResumeLatency) {
  Simulator sim;
  ClusterHost host(0, HostRole::kHome, TestConfig(), false);
  SimTime powered_at;
  host.RequestWake(sim, [&](SimTime t) { powered_at = t; });
  EXPECT_EQ(host.power_state(), HostPowerState::kResuming);
  sim.RunToCompletion();
  EXPECT_TRUE(host.IsPowered());
  EXPECT_EQ(powered_at, SimTime::Seconds(2.3));
}

TEST(ClusterHostTest, WakeWhenPoweredFiresImmediately) {
  Simulator sim;
  ClusterHost host(0, HostRole::kHome, TestConfig(), true);
  bool fired = false;
  host.RequestWake(sim, [&](SimTime) { fired = true; });
  EXPECT_TRUE(fired);
}

TEST(ClusterHostTest, WakeDuringSuspendQueuesBehindIt) {
  Simulator sim;
  ClusterHost host(0, HostRole::kHome, TestConfig(), true);
  host.RequestSleep(sim);
  SimTime powered_at;
  sim.ScheduleAfter(SimTime::Seconds(1), [&] {
    host.RequestWake(sim, [&](SimTime t) { powered_at = t; });
  });
  sim.RunToCompletion();
  EXPECT_TRUE(host.IsPowered());
  // Full suspend (3.1 s) then resume (2.3 s).
  EXPECT_NEAR(powered_at.seconds(), 5.4, 0.01);
}

// A crash bumps the host's transition epoch; that epoch alone retires a
// completion scheduled before the crash once a new transition has put the
// host back in the state the stale completion expects.
TEST(ClusterHostTest, CrashDuringResumeRetiresTheStaleCompletion) {
  Simulator sim;
  ClusterHost host(0, HostRole::kHome, TestConfig(), false);
  bool first_fired = false;
  host.RequestWake(sim, [&](SimTime) { first_fired = true; });
  SimTime powered_at;
  sim.ScheduleAt(SimTime::Seconds(1), [&] {
    host.Crash(sim.now());
    host.RequestWake(sim, [&](SimTime t) { powered_at = t; });
  });
  // The first resume's completion (at 2.3 s) must not power the host early.
  sim.RunUntil(SimTime::Seconds(3));
  EXPECT_EQ(host.power_state(), HostPowerState::kResuming);
  sim.RunToCompletion();
  EXPECT_TRUE(host.IsPowered());
  EXPECT_EQ(powered_at, SimTime::Seconds(1) + SimTime::Seconds(2.3));
  EXPECT_FALSE(first_fired);
}

TEST(ClusterHostTest, CrashDuringSuspendRetiresTheStaleCompletion) {
  Simulator sim;
  ClusterHost host(0, HostRole::kHome, TestConfig(), true);
  host.RequestSleep(sim);
  SimTime asleep_at;
  sim.ScheduleAt(SimTime::Seconds(0.2), [&] {
    host.Crash(sim.now());
    host.RequestWake(sim, [](SimTime) {});
  });
  // Powered again at 2.5 s; suspend anew while the first suspend's
  // completion (at 3.1 s) is still queued.
  sim.ScheduleAt(SimTime::Seconds(2.6), [&] {
    ASSERT_TRUE(host.IsPowered());
    host.RequestSleep(sim, [&](SimTime t) { asleep_at = t; });
  });
  sim.RunUntil(SimTime::Seconds(4));
  EXPECT_EQ(host.power_state(), HostPowerState::kSuspending);
  sim.RunToCompletion();
  EXPECT_TRUE(host.IsAsleep());
  EXPECT_EQ(asleep_at, SimTime::Seconds(2.6) + SimTime::Seconds(3.1));
}

TEST(ClusterHostTest, OnAsleepCallbackFires) {
  Simulator sim;
  ClusterHost host(0, HostRole::kHome, TestConfig(), true);
  SimTime asleep_at;
  host.RequestSleep(sim, [&](SimTime t) { asleep_at = t; });
  sim.RunToCompletion();
  EXPECT_EQ(asleep_at, SimTime::Seconds(3.1));
}

TEST(ClusterHostTest, SleepRequestIgnoredUnlessPowered) {
  Simulator sim;
  ClusterHost host(0, HostRole::kHome, TestConfig(), false);
  host.RequestSleep(sim);
  EXPECT_TRUE(host.IsAsleep());  // unchanged, no crash
}

TEST(ClusterHostTest, MultipleWakeWaitersAllFire) {
  Simulator sim;
  ClusterHost host(0, HostRole::kHome, TestConfig(), false);
  int fired = 0;
  host.RequestWake(sim, [&](SimTime) { ++fired; });
  host.RequestWake(sim, [&](SimTime) { ++fired; });
  sim.RunToCompletion();
  EXPECT_EQ(fired, 2);
}

TEST(ClusterHostTest, EarliestPoweredTime) {
  Simulator sim;
  ClusterHost host(0, HostRole::kHome, TestConfig(), true);
  EXPECT_EQ(host.EarliestPoweredTime(SimTime::Zero()), SimTime::Zero());
  host.RequestSleep(sim);
  // Suspending: must finish suspend then resume.
  EXPECT_NEAR(host.EarliestPoweredTime(SimTime::Zero()).seconds(), 5.4, 0.01);
  sim.RunToCompletion();
  EXPECT_NEAR(host.EarliestPoweredTime(SimTime::Seconds(10)).seconds(), 12.3, 0.01);
}

TEST(ClusterHostTest, OutboundMigrationsSerialize) {
  ClusterHost host(0, HostRole::kHome, TestConfig(), true);
  SimTime d1 = host.EnqueueOutboundMigration(SimTime::Zero(), SimTime::Seconds(10));
  SimTime d2 = host.EnqueueOutboundMigration(SimTime::Zero(), SimTime::Seconds(7.2));
  EXPECT_EQ(d1, SimTime::Seconds(10));
  EXPECT_NEAR(d2.seconds(), 17.2, 1e-9);
  EXPECT_EQ(host.outbound_busy_until(), d2);
}

TEST(ClusterHostTest, InboundTransfersSerializeIndependently) {
  ClusterHost host(0, HostRole::kHome, TestConfig(), true);
  host.EnqueueOutboundMigration(SimTime::Zero(), SimTime::Seconds(100));
  SimTime d = host.EnqueueInboundTransfer(SimTime::Zero(), SimTime::Seconds(1.5));
  EXPECT_NEAR(d.seconds(), 1.5, 1e-9);  // unaffected by outbound backlog
}

TEST(ClusterHostTest, EnergyAccountsStates) {
  Simulator sim;
  ClusterHost host(0, HostRole::kHome, TestConfig(), true);
  // Powered and empty: 102.2 W for one hour.
  Joules e1 = host.HostEnergy(SimTime::Hours(1));
  EXPECT_NEAR(ToWattHours(e1), 102.2, 0.01);
}

TEST(ClusterHostTest, VmResidencyRaisesDraw) {
  ClusterHost host(0, HostRole::kHome, TestConfig(), true);
  for (VmId v = 0; v < 30; ++v) {
    host.AddVm(SimTime::Zero(), v);
  }
  // Saturated at the 20-VM figure: 137.9 W.
  EXPECT_NEAR(ToWattHours(host.HostEnergy(SimTime::Hours(1))), 137.9, 0.01);
}

std::vector<VmId> Residents(const ClusterHost& host) {
  return std::vector<VmId>(host.vms().begin(), host.vms().end());
}

TEST(ClusterHostTest, ResidentSetStaysAscendingUnderInterleavedChanges) {
  // Every walk over vms() depends on ascending order (planner draw order),
  // so the resident set must keep it through arbitrary churn.
  ClusterHost host(0, HostRole::kConsolidation, TestConfig(), true);
  for (VmId v : {40u, 7u, 23u, 0u, 31u, 15u}) {
    host.AddVm(SimTime::Zero(), v);
  }
  host.RemoveVm(SimTime::Zero(), 23);
  host.AddVm(SimTime::Zero(), 19);
  host.RemoveVm(SimTime::Zero(), 0);
  host.AddVm(SimTime::Zero(), 41);
  host.RemoveVm(SimTime::Zero(), 41);
  host.AddVm(SimTime::Zero(), 2);
  EXPECT_EQ(Residents(host), (std::vector<VmId>{2, 7, 15, 19, 31, 40}));
  EXPECT_EQ(host.vms().size(), 6u);
  EXPECT_TRUE(host.HasVm(19));
  EXPECT_TRUE(host.HasVm(40));
  EXPECT_FALSE(host.HasVm(23));
  EXPECT_FALSE(host.HasVm(0));
  EXPECT_FALSE(host.HasVm(41));
}

// Random adds and removes of ids in [lo, hi) against a std::set reference:
// iteration order, size() and membership must agree after every step.
void ChurnAgainstReference(ClusterHost& host, VmId lo, VmId hi) {
  Rng rng(0x5e7 + lo);
  std::set<VmId> reference;
  for (int step = 0; step < 4000; ++step) {
    VmId vm = lo + static_cast<VmId>(rng.NextBelow(hi - lo));
    if (reference.count(vm) != 0) {
      host.RemoveVm(SimTime::Zero(), vm);
      reference.erase(vm);
    } else {
      host.AddVm(SimTime::Zero(), vm);
      reference.insert(vm);
    }
    ASSERT_EQ(host.vms().size(), reference.size()) << "step " << step;
    ASSERT_EQ(host.vms().empty(), reference.empty());
    ASSERT_EQ(host.HasVm(vm), reference.count(vm) != 0);
    if (step % 97 == 0) {
      ASSERT_EQ(Residents(host), std::vector<VmId>(reference.begin(), reference.end()))
          << "step " << step;
    }
  }
  EXPECT_EQ(Residents(host), std::vector<VmId>(reference.begin(), reference.end()));
  EXPECT_TRUE(std::all_of(host.vms().begin(), host.vms().end(),
                          [&](VmId vm) { return reference.count(vm) != 0; }));
}

TEST(ClusterHostTest, HomeResidentSetAscendsUnderChurn) {
  // Home 3 of 110-VM homes owns ids [330, 440): a window that starts and
  // ends mid-word.
  ClusterConfig config = TestConfig();
  config.vms_per_home = 110;
  ClusterHost host(3, HostRole::kHome, config, true);
  ChurnAgainstReference(host, 330, 440);
}

TEST(ClusterHostTest, ConsolidationResidentSetAscendsUnderChurn) {
  // A consolidation host's window is every VM of the rack, here 36 x 110.
  ClusterConfig config = TestConfig();
  config.num_home_hosts = 36;
  config.vms_per_home = 110;
  ClusterHost host(36, HostRole::kConsolidation, config, false);
  ChurnAgainstReference(host, 0, 3960);
}

TEST(ClusterHostTest, HasVmOutsideTheWindowIsFalse) {
  ClusterConfig config = TestConfig();  // 30 homes x 30 VMs
  ClusterHost home(1, HostRole::kHome, config, true);
  for (VmId v = 30; v < 60; ++v) {
    home.AddVm(SimTime::Zero(), v);
  }
  EXPECT_TRUE(home.HasVm(30));
  EXPECT_TRUE(home.HasVm(59));
  EXPECT_FALSE(home.HasVm(29));
  EXPECT_FALSE(home.HasVm(60));
  EXPECT_FALSE(home.HasVm(0));
  EXPECT_FALSE(home.HasVm(100000));
  ClusterHost cons(30, HostRole::kConsolidation, config, true);
  EXPECT_FALSE(cons.HasVm(900));
  EXPECT_FALSE(cons.HasVm(~VmId{0}));
}

TEST(ClusterHostDeathTest, RemovingANonResidentVmAsserts) {
  ClusterHost host(0, HostRole::kHome, TestConfig(), true);
  host.AddVm(SimTime::Zero(), 3);
  EXPECT_DEATH(host.RemoveVm(SimTime::Zero(), 4), "not resident");
  EXPECT_DEATH(host.AddVm(SimTime::Zero(), 3), "already resident");
}

TEST(ClusterHostDeathTest, ForeignVmOnAHomeAsserts) {
  // Home 0 owns ids [0, 30); VM 30 belongs to home 1.
  ClusterHost host(0, HostRole::kHome, TestConfig(), true);
  EXPECT_DEATH(host.AddVm(SimTime::Zero(), 30), "outside this host's resident window");
  EXPECT_DEATH(host.RemoveVm(SimTime::Zero(), 30), "outside this host's resident window");
}

TEST(ClusterHostTest, SleepEnergyIncludesTransitionSpike) {
  Simulator sim;
  ClusterHost host(0, HostRole::kHome, TestConfig(), true);
  host.RequestSleep(sim);
  sim.RunToCompletion();
  Joules e = host.HostEnergy(SimTime::Hours(1));
  double expected = 138.2 * 3.1 + 12.9 * (3600.0 - 3.1);
  EXPECT_NEAR(e, expected, 1.0);
}

TEST(ClusterHostTest, MemoryServerEnergySeparate) {
  ClusterHost host(0, HostRole::kHome, TestConfig(), true);
  host.SetMemoryServerPowered(SimTime::Zero(), true);
  host.SetMemoryServerPowered(SimTime::Hours(2), false);
  EXPECT_NEAR(ToWattHours(host.MemoryServerEnergy(SimTime::Hours(5))), 84.4, 0.01);
}

TEST(ClusterHostTest, LedgerTracksSleepFraction) {
  Simulator sim;
  ClusterHost host(0, HostRole::kHome, TestConfig(), true);
  host.RequestSleep(sim);
  sim.RunToCompletion();
  host.AdvanceLedger(SimTime::Hours(24));
  EXPECT_GT(host.ledger().SleepFraction(SimTime::Hours(24)), 0.99);
}

}  // namespace
}  // namespace oasis
