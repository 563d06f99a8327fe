// Scenario-level cluster-manager tests: migration aborts, drains, swaps,
// capacity exhaustion, and invariants under parameterized cluster shapes.

#include <gtest/gtest.h>

#include "src/check/check.h"
#include "src/cluster/manager.h"
#include "src/trace/trace_generator.h"

namespace oasis {
namespace {

TraceSet IdleTrace(int users) { return TraceSet(static_cast<size_t>(users), UserDay{}); }

// Runs every scenario with a warn-mode checker installed, so the
// conservation walk follows each planning round, and fails the scenario if
// any invariant fired.
class ManagerScenarioTest : public ::testing::Test {
 protected:
  void SetUp() override { check::InvariantChecker::Install(&checker_); }
  void TearDown() override {
    check::InvariantChecker::Install(nullptr);
    EXPECT_EQ(checker_.violation_count(), 0u) << "invariant violations recorded; "
                                                 "see stderr for the structured report";
  }

  check::InvariantChecker checker_{check::CheckMode::kWarn};
};

// Activates `user` for [from, to) intervals.
void Activate(TraceSet& trace, int user, int from, int to) {
  for (int i = from; i < to && i < kIntervalsPerDay; ++i) {
    trace[static_cast<size_t>(user)].SetActive(i, true);
  }
}

TEST_F(ManagerScenarioTest, QueuedPartialMigrationAbortsWhenUserReturns) {
  // One dense home host: vacating its 45 idle VMs takes 45 x 7.2 s = 324 s,
  // longer than one planning interval. A VM near the end of the queue whose
  // user returns at the next interval has not been suspended yet — the move
  // aborts and the user sees zero delay.
  ClusterConfig config;
  config.num_home_hosts = 1;
  config.num_consolidation_hosts = 2;
  config.SetVmsPerHome(45);
  config.policy = ConsolidationPolicy::kFullToPartial;
  TraceSet trace = IdleTrace(45);
  Activate(trace, 44, 1, 4);  // back 5 minutes after the vacate starts

  ClusterManager manager(config, trace);
  ClusterMetrics m = manager.Run();
  ASSERT_GT(m.transition_delay_s.count(), 0u);
  // The returning user waited nothing: the queued migration was cancelled
  // (or, had the VM already moved, it converted in place within seconds).
  EXPECT_LT(m.transition_delay_s.Quantile(0.5), 4.0);
  EXPECT_LT(m.transition_delay_s.Max(), 30.0);
}

TEST_F(ManagerScenarioTest, CapacityExhaustionReturnsWholeHomeGroup) {
  // A consolidation host too small to hold a converting VM forces the
  // §3.2 Default fallback: wake the home, return all its VMs.
  ClusterConfig config;
  config.num_home_hosts = 2;
  config.num_consolidation_hosts = 1;
  config.vms_per_home = 10;
  config.host_memory_bytes = 44 * kGiB;  // fits 10 x 4 GiB + working sets, barely
  config.policy = ConsolidationPolicy::kDefault;
  TraceSet trace = IdleTrace(20);
  // Overnight everyone idles; at 09:00 twelve users come back at once and
  // their in-place conversions (4 GiB each) exhaust the 44 GiB host.
  for (int u = 0; u < 12; ++u) {
    Activate(trace, u, IntervalAt(9.0), IntervalAt(17.0));
  }
  ClusterManager manager(config, trace);
  ClusterMetrics m = manager.Run();
  EXPECT_GT(m.capacity_exhaustions, 0u);
  EXPECT_GT(m.reintegrations, 0u);
  // Whatever happened, no active VM may end up without full resources.
  for (size_t v = 0; v < manager.num_vms(); ++v) {
    const VmSlot& vm = manager.GetVm(static_cast<VmId>(v));
    if (vm.activity == VmActivity::kActive && !vm.migration_in_flight) {
      EXPECT_NE(vm.residency, VmResidency::kPartial) << "vm " << v;
    }
  }
}

TEST_F(ManagerScenarioTest, FullToPartialSwapRecyclesConsolidationMemory) {
  // A user active overnight gets vacated in full; when they stop at 02:00,
  // FulltoPartial returns the VM home and re-consolidates it partially,
  // freeing most of its reservation.
  ClusterConfig config;
  config.num_home_hosts = 2;
  config.num_consolidation_hosts = 1;
  config.vms_per_home = 5;
  config.policy = ConsolidationPolicy::kFullToPartial;
  TraceSet trace = IdleTrace(10);
  Activate(trace, 0, 0, IntervalAt(2.0));

  ClusterManager manager(config, trace);
  ClusterMetrics m = manager.Run();
  EXPECT_GT(m.full_to_partial_swaps, 0u);
  // By the end of the day the VM is partial again.
  EXPECT_EQ(manager.GetVm(0).residency, VmResidency::kPartial);
  // Default would have left it parked in full; here the reservation shrank.
  EXPECT_LT(manager.GetVm(0).ws_bytes, 1 * kGiB);
}

TEST_F(ManagerScenarioTest, DefaultLeavesIdleFullVmsParked) {
  ClusterConfig config;
  config.num_home_hosts = 2;
  config.num_consolidation_hosts = 1;
  config.vms_per_home = 5;
  config.policy = ConsolidationPolicy::kDefault;
  TraceSet trace = IdleTrace(10);
  Activate(trace, 0, 0, IntervalAt(2.0));

  ClusterManager manager(config, trace);
  ClusterMetrics m = manager.Run();
  EXPECT_EQ(m.full_to_partial_swaps, 0u);
  EXPECT_EQ(manager.GetVm(0).residency, VmResidency::kFullAtConsolidation);
}

TEST_F(ManagerScenarioTest, DrainCollapsesConsolidationHosts) {
  // Plenty of consolidation hosts for few VMs: after the initial spread the
  // drain step should concentrate the partials and let the spares sleep.
  ClusterConfig config;
  config.num_home_hosts = 4;
  config.num_consolidation_hosts = 4;
  config.vms_per_home = 8;
  config.policy = ConsolidationPolicy::kFullToPartial;
  ClusterManager manager(config, IdleTrace(32));
  ClusterMetrics m = manager.Run();
  // 32 partial working sets (~165 MiB each) fit one host with ease.
  EXPECT_EQ(m.timeline.back().powered_consolidation_hosts, 1);
}

TEST_F(ManagerScenarioTest, NewHomeMovesInsteadOfWakingHome) {
  // NewHome: when a conversion would not fit, the VM moves to another
  // *currently powered* consolidation host instead of waking its home. That
  // situation needs both consolidation hosts busy, so this scenario uses a
  // mid-sized cluster under a realistic diurnal trace.
  ClusterConfig config;
  config.num_home_hosts = 12;
  config.num_consolidation_hosts = 2;
  config.vms_per_home = 30;
  config.policy = ConsolidationPolicy::kNewHome;
  config.seed = 7;
  TraceGenerator gen(TraceGeneratorConfig{}, 11);
  ClusterManager manager(config, gen.GenerateTraceSet(config.TotalVms(), DayKind::kWeekday));
  ClusterMetrics m = manager.Run();
  EXPECT_GT(m.new_home_moves, 0u);
  EXPECT_GT(checker_.checks_run(), 0u);  // the walk followed every NewHome move
  // NewHome only refines the fallback; exhaustion returns still occur when
  // no powered host has room.
  EXPECT_GT(m.capacity_exhaustions, 0u);
}

TEST_F(ManagerScenarioTest, ResumeStormUnderWolLossStaysBoundedAndLosesNoVm) {
  // The 09:00 storm with a lossy wake path: every home wakes at once while
  // WoL packets drop and S3 resumes hang. The recovery policy (re-send on a
  // timeout, watchdog on the hang) bounds the extra user-visible delay by
  // kMaxWolRetries * kWolRetryTimeout + kResumeWatchdog per wake, and no
  // VM may be lost or left partial while its user is active.
  ClusterConfig config;
  config.num_home_hosts = 6;
  config.num_consolidation_hosts = 2;
  config.vms_per_home = 8;
  config.policy = ConsolidationPolicy::kFullToPartial;
  TraceSet trace = IdleTrace(48);
  for (int u = 0; u < 48; ++u) {
    Activate(trace, u, IntervalAt(9.0), IntervalAt(17.0));
  }
  ClusterMetrics control = ClusterManager(config, trace).Run();

  ClusterConfig lossy = config;
  lossy.fault.enabled = true;
  lossy.fault.wol_loss_probability = 0.4;
  lossy.fault.resume_hang_probability = 0.25;
  ClusterManager manager(lossy, trace);
  ClusterMetrics m = manager.Run();

  const FaultInjector& injector = manager.fault_injector();
  EXPECT_GT(injector.injected(FaultClass::kWolLoss), 0u);
  EXPECT_GT(injector.injected(FaultClass::kResumeHang), 0u);
  EXPECT_EQ(m.faults_injected, m.faults_recovered);

  // Bounded: a wake can lose at most kMaxWolRetries packets and hang once,
  // so no transition stretches beyond the fault-free one by more than that.
  double worst_wake_penalty_s =
      kMaxWolRetries * kWolRetryTimeout.seconds() + kResumeWatchdog.seconds();
  ASSERT_GT(m.transition_delay_s.count(), 0u);
  EXPECT_LE(m.transition_delay_s.Max(),
            control.transition_delay_s.Max() + worst_wake_penalty_s + 0.5);

  // Zero lost VMs: census intact and no active VM stranded partial.
  size_t census = 0;
  for (size_t h = 0; h < manager.num_hosts(); ++h) {
    census += manager.GetHost(static_cast<HostId>(h)).vms().size();
  }
  EXPECT_EQ(census, static_cast<size_t>(config.TotalVms()));
  for (size_t v = 0; v < manager.num_vms(); ++v) {
    const VmSlot& vm = manager.GetVm(static_cast<VmId>(v));
    EXPECT_TRUE(manager.GetHost(vm.location).HasVm(vm.id)) << "vm " << v;
    if (vm.activity == VmActivity::kActive && !vm.migration_in_flight) {
      EXPECT_NE(vm.residency, VmResidency::kPartial) << "vm " << v;
    }
  }
}

struct ShapeParam {
  int homes;
  int vms;
  int cons;
  ConsolidationPolicy policy;
};

class ManagerShapeTest : public ::testing::TestWithParam<ShapeParam> {};

TEST_P(ManagerShapeTest, InvariantsHoldForRealisticDay) {
  ShapeParam param = GetParam();
  ClusterConfig config;
  config.num_home_hosts = param.homes;
  config.num_consolidation_hosts = param.cons;
  config.vms_per_home = param.vms;
  config.policy = param.policy;
  config.seed = 99;
  TraceGenerator gen(TraceGeneratorConfig{}, 31);
  ClusterManager manager(config, gen.GenerateTraceSet(config.TotalVms(), DayKind::kWeekday));
  ClusterMetrics m = manager.Run();

  // Energy sanity.
  EXPECT_GT(m.TotalEnergy(), 0.0);
  EXPECT_LT(m.TotalEnergy(), m.baseline_energy * 1.5);
  // Capacity: no host over-reserved (the assert would have fired too).
  for (size_t h = 0; h < manager.num_hosts(); ++h) {
    EXPECT_LE(manager.GetHost(static_cast<HostId>(h)).reserved_bytes(),
              manager.GetHost(static_cast<HostId>(h)).capacity_bytes());
  }
  // Location/membership coherence.
  for (size_t v = 0; v < manager.num_vms(); ++v) {
    const VmSlot& vm = manager.GetVm(static_cast<VmId>(v));
    EXPECT_TRUE(manager.GetHost(vm.location).HasVm(vm.id));
  }
  // Delay distribution sanity.
  if (m.transition_delay_s.count() > 0) {
    EXPECT_GE(m.transition_delay_s.Min(), 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ManagerShapeTest,
    ::testing::Values(ShapeParam{2, 4, 1, ConsolidationPolicy::kOnlyPartial},
                      ShapeParam{5, 10, 2, ConsolidationPolicy::kDefault},
                      ShapeParam{8, 12, 3, ConsolidationPolicy::kFullToPartial},
                      ShapeParam{8, 12, 3, ConsolidationPolicy::kNewHome},
                      ShapeParam{12, 6, 2, ConsolidationPolicy::kFullToPartial},
                      ShapeParam{3, 30, 4, ConsolidationPolicy::kFullToPartial}),
    [](const auto& suite_info) {
      return std::string(ConsolidationPolicyName(suite_info.param.policy)) + "_" +
             std::to_string(suite_info.param.homes) + "x" + std::to_string(suite_info.param.vms) + "_" +
             std::to_string(suite_info.param.cons);
    });

TEST_F(ManagerScenarioTest, CpuCapBindsBeforeMemoryOnLargeHosts) {
  // Two homes of 60 VMs on 256 GiB hosts: one consolidation host has the
  // memory for 64 full VMs but executes at most kMaxActiveVmsPerHost = 48
  // active ones. Home 1 idles all day; home 0 runs `active` always-active
  // VMs and idles the rest. Vacating one home alone never pays for waking
  // the consolidation host, so the power gate commits only a plan that
  // vacates both, and that plan needs every active VM of home 0 to get a CPU
  // slot: memory alone would admit 49.
  ClusterConfig config;
  config.num_home_hosts = 2;
  config.num_consolidation_hosts = 1;
  config.SetVmsPerHome(60);
  config.policy = ConsolidationPolicy::kFullToPartial;
  for (int active : {kMaxActiveVmsPerHost, kMaxActiveVmsPerHost + 1}) {
    TraceSet trace = IdleTrace(120);
    for (int u = 0; u < active; ++u) {
      Activate(trace, u, 0, kIntervalsPerDay);
    }
    ClusterManager manager(config, trace);
    ClusterMetrics m = manager.Run();
    if (active <= kMaxActiveVmsPerHost) {
      // Every active VM moves in full, and both homes end the day asleep.
      EXPECT_EQ(m.full_migrations, static_cast<uint64_t>(active));
      EXPECT_FALSE(manager.GetHost(0).IsPowered());
      EXPECT_FALSE(manager.GetHost(1).IsPowered());
    } else {
      // Nothing moves: a vacate is all-or-nothing per home.
      EXPECT_EQ(m.full_migrations, 0u);
      EXPECT_EQ(m.partial_migrations, 0u);
      EXPECT_TRUE(manager.GetHost(0).IsPowered());
    }
  }
}

TEST_F(ManagerScenarioTest, OvercommitRaisesConsolidationCapacity) {
  ClusterConfig tight;
  tight.num_home_hosts = 4;
  tight.num_consolidation_hosts = 1;
  tight.vms_per_home = 10;
  tight.host_memory_bytes = 44 * kGiB;
  tight.policy = ConsolidationPolicy::kFullToPartial;
  ClusterConfig loose = tight;
  loose.memory_overcommit = 1.5;
  TraceSet trace = IdleTrace(40);
  for (int u = 0; u < 12; ++u) {
    Activate(trace, u, IntervalAt(9.0), IntervalAt(17.0));
  }
  ClusterMetrics m_tight = ClusterManager(tight, trace).Run();
  ClusterMetrics m_loose = ClusterManager(loose, trace).Run();
  EXPECT_GE(m_loose.EnergySavings(), m_tight.EnergySavings());
}

}  // namespace
}  // namespace oasis
