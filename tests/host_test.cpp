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

// One host on its own clock. RunUntil lands the host's S3 completions as
// the cluster's dispatch does and logs each one that was not stale.
struct HostWorld {
  explicit HostWorld(bool initially_powered)
      : host(0, HostRole::kHome, TestConfig(), initially_powered) {}

  void RunUntil(SimTime until) {
    sim.RunUntil(until, [this](const Event& ev) {
      EXPECT_EQ(ev.a, host.id());
      if (static_cast<ClusterEvent>(ev.kind) == ClusterEvent::kResumeDone) {
        if (host.FinishResume(sim.now(), ev.b)) {
          powered_at.push_back(sim.now());
        }
      } else {
        ASSERT_EQ(static_cast<ClusterEvent>(ev.kind), ClusterEvent::kSuspendDone);
        if (host.FinishSuspend(sim, ev.b)) {
          asleep_at.push_back(sim.now());
        }
      }
    });
  }

  Simulator sim;
  ClusterHost host;
  std::vector<SimTime> powered_at;  // each resume that landed
  std::vector<SimTime> asleep_at;   // each suspend that landed
};

TEST(ClusterHostTest, SleepTakesSuspendLatency) {
  HostWorld w(true);
  w.host.RequestSleep(w.sim);
  EXPECT_EQ(w.host.power_state(), HostPowerState::kSuspending);
  w.RunUntil(SimTime::Seconds(3.0));
  EXPECT_EQ(w.host.power_state(), HostPowerState::kSuspending);
  w.RunUntil(SimTime::Seconds(3.2));
  EXPECT_TRUE(w.host.IsAsleep());
  EXPECT_EQ(w.asleep_at, (std::vector<SimTime>{SimTime::Seconds(3.1)}));
}

TEST(ClusterHostTest, WakeTakesResumeLatency) {
  HostWorld w(false);
  w.host.RequestWake(w.sim);
  EXPECT_EQ(w.host.power_state(), HostPowerState::kResuming);
  w.RunUntil(SimTime::Seconds(10));
  EXPECT_TRUE(w.host.IsPowered());
  EXPECT_EQ(w.powered_at, (std::vector<SimTime>{SimTime::Seconds(2.3)}));
}

TEST(ClusterHostTest, WakeWhenPoweredSchedulesNothing) {
  HostWorld w(true);
  w.host.RequestWake(w.sim);
  EXPECT_TRUE(w.host.IsPowered());
  EXPECT_EQ(w.sim.pending_events(), 0u);
}

TEST(ClusterHostTest, WakeDuringSuspendQueuesBehindIt) {
  HostWorld w(true);
  w.host.RequestSleep(w.sim);
  w.RunUntil(SimTime::Seconds(1));
  w.host.RequestWake(w.sim);
  w.RunUntil(SimTime::Seconds(10));
  EXPECT_TRUE(w.host.IsPowered());
  // Full suspend (3.1 s) then resume (2.3 s).
  EXPECT_EQ(w.asleep_at, (std::vector<SimTime>{SimTime::Seconds(3.1)}));
  ASSERT_EQ(w.powered_at.size(), 1u);
  EXPECT_NEAR(w.powered_at[0].seconds(), 5.4, 0.01);
}

// However many wakes queue behind a suspend, its completion starts one
// resume, and so schedules exactly one resume completion.
TEST(ClusterHostTest, SuspendWithAQueuedWakeSchedulesExactlyOneResume) {
  HostWorld w(true);
  w.host.RequestSleep(w.sim);
  w.RunUntil(SimTime::Seconds(1));
  w.host.RequestWake(w.sim);
  w.host.RequestWake(w.sim);
  EXPECT_EQ(w.sim.pending_events(), 1u) << "the suspend only";
  w.RunUntil(SimTime::Seconds(3.1));
  EXPECT_EQ(w.host.power_state(), HostPowerState::kResuming);
  EXPECT_EQ(w.sim.pending_events(), 1u) << "one resume";
  w.RunUntil(SimTime::Seconds(10));
  EXPECT_EQ(w.powered_at, (std::vector<SimTime>{SimTime::Seconds(3.1) + SimTime::Seconds(2.3)}));
}

// A crash bumps the host's transition epoch; that epoch alone retires a
// completion scheduled before the crash once a new transition has put the
// host back in the state the stale completion expects.
TEST(ClusterHostTest, CrashDuringResumeRetiresTheStaleCompletion) {
  HostWorld w(false);
  w.host.RequestWake(w.sim);
  w.RunUntil(SimTime::Seconds(1));
  w.host.Crash(w.sim.now());
  w.host.RequestWake(w.sim);
  // The first resume's completion (at 2.3 s) must not power the host early.
  w.RunUntil(SimTime::Seconds(3));
  EXPECT_EQ(w.host.power_state(), HostPowerState::kResuming);
  EXPECT_TRUE(w.powered_at.empty());
  w.RunUntil(SimTime::Seconds(10));
  EXPECT_TRUE(w.host.IsPowered());
  EXPECT_EQ(w.powered_at, (std::vector<SimTime>{SimTime::Seconds(1) + SimTime::Seconds(2.3)}));
}

TEST(ClusterHostTest, CrashDuringSuspendRetiresTheStaleCompletion) {
  HostWorld w(true);
  w.host.RequestSleep(w.sim);
  w.RunUntil(SimTime::Seconds(0.2));
  w.host.Crash(w.sim.now());
  w.host.RequestWake(w.sim);
  // Powered again at 2.5 s; suspend anew while the first suspend's
  // completion (at 3.1 s) is still queued.
  w.RunUntil(SimTime::Seconds(2.6));
  ASSERT_TRUE(w.host.IsPowered());
  w.host.RequestSleep(w.sim);
  w.RunUntil(SimTime::Seconds(4));
  EXPECT_EQ(w.host.power_state(), HostPowerState::kSuspending);
  EXPECT_TRUE(w.asleep_at.empty());
  w.RunUntil(SimTime::Seconds(10));
  EXPECT_TRUE(w.host.IsAsleep());
  EXPECT_EQ(w.asleep_at, (std::vector<SimTime>{SimTime::Seconds(2.6) + SimTime::Seconds(3.1)}));
}

TEST(ClusterHostTest, SleepRequestIgnoredUnlessPowered) {
  HostWorld w(false);
  w.host.RequestSleep(w.sim);
  EXPECT_TRUE(w.host.IsAsleep());  // unchanged, no crash
  EXPECT_EQ(w.sim.pending_events(), 0u);
}

TEST(ClusterHostTest, TwoWakesDuringOneResumeLeaveOneCompletion) {
  HostWorld w(false);
  w.host.RequestWake(w.sim);
  w.host.RequestWake(w.sim);
  EXPECT_EQ(w.sim.pending_events(), 1u);
  w.RunUntil(SimTime::Seconds(10));
  EXPECT_EQ(w.powered_at, (std::vector<SimTime>{SimTime::Seconds(2.3)}));
}

TEST(ClusterHostTest, EarliestPoweredTime) {
  HostWorld w(true);
  EXPECT_EQ(w.host.EarliestPoweredTime(SimTime::Zero()), SimTime::Zero());
  w.host.RequestSleep(w.sim);
  // Suspending: must finish suspend then resume.
  EXPECT_NEAR(w.host.EarliestPoweredTime(SimTime::Zero()).seconds(), 5.4, 0.01);
  w.RunUntil(SimTime::Seconds(10));
  EXPECT_NEAR(w.host.EarliestPoweredTime(SimTime::Seconds(10)).seconds(), 12.3, 0.01);
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
  HostWorld w(true);
  w.host.RequestSleep(w.sim);
  w.RunUntil(SimTime::Seconds(10));
  Joules e = w.host.HostEnergy(SimTime::Hours(1));
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
  HostWorld w(true);
  w.host.RequestSleep(w.sim);
  w.RunUntil(SimTime::Seconds(10));
  w.host.AdvanceLedger(SimTime::Hours(24));
  EXPECT_GT(w.host.ledger().SleepFraction(SimTime::Hours(24)), 0.99);
}

}  // namespace
}  // namespace oasis
