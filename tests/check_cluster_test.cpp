// Check-instrumented cluster runs: the conservation walk under fault
// injection, and the RollbackMigration emergency-reintegration path in
// particular. A consolidation host crashing while partial migrations are in
// flight forces the manager through rollback + emergency reintegration; the
// installed checker asserts after every planning interval that no VM was
// lost or duplicated and that no partial-VM page state leaked.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "src/check/check.h"
#include "src/cluster/invariants.h"
#include "src/cluster/manager.h"
#include "src/fault/fault.h"
#include "src/trace/trace_generator.h"

namespace oasis {

// Reaches into a manager to break its pending-completion list mid-day.
struct CheckClusterTestPeer {
  static std::vector<PendingCompletion>& Completions(ClusterManager& m) {
    return m.state_.completions;
  }
  // Makes the probe instant a batch point, as the walk expects.
  static void RetireCompletions(ClusterManager& m) { m.act_.RetireCompletions(); }
};

namespace {

using check::CheckMode;
using check::InvariantChecker;

ClusterConfig SmallCluster(uint64_t seed) {
  ClusterConfig config;
  config.num_home_hosts = 6;
  config.num_consolidation_hosts = 2;
  config.vms_per_home = 10;
  config.policy = ConsolidationPolicy::kFullToPartial;
  config.seed = seed;
  return config;
}

TraceSet TraceFor(const ClusterConfig& config) {
  TraceGenerator generator(TraceGeneratorConfig{}, config.seed ^ 0x7ACEBA5Eull);
  return generator.GenerateTraceSet(config.TotalVms(), DayKind::kWeekday);
}

// Installs a warn-mode checker for the duration of each test so every
// instrumentation site in the manager/hypervisor/power layers is live, and
// fails the test if any invariant fired.
class CheckClusterTest : public ::testing::Test {
 protected:
  void SetUp() override { InvariantChecker::Install(&checker_); }
  void TearDown() override {
    InvariantChecker::Install(nullptr);
    EXPECT_EQ(checker_.violation_count(), 0u) << "invariant violations recorded; "
                                                 "see stderr for the structured report";
  }

  void ExpectNoVmLostOrDuplicated(const ClusterManager& manager) {
    size_t census = 0;
    for (size_t h = 0; h < manager.num_hosts(); ++h) {
      census += manager.GetHost(static_cast<HostId>(h)).vms().size();
    }
    EXPECT_EQ(census, manager.num_vms());
    for (size_t v = 0; v < manager.num_vms(); ++v) {
      const VmSlot& vm = manager.GetVm(static_cast<VmId>(v));
      ASSERT_LT(vm.location, manager.num_hosts()) << "vm " << v;
      EXPECT_TRUE(manager.GetHost(vm.location).HasVm(vm.id))
          << "vm " << v << " not resident where its slot points";
    }
  }

  InvariantChecker checker_{CheckMode::kWarn};
};

TEST_F(CheckClusterTest, CrashMidPartialMigrationReintegratesWithoutPageLoss) {
  ClusterConfig config = SmallCluster(20160419);
  config.fault.enabled = true;
  // Aborted streams plus explicit crashes on both consolidation hosts, spread
  // across the day so several land while vacate migrations are in flight —
  // exactly the window where RollbackMigration's emergency path runs.
  config.fault.migration_abort_per_hour = 2.0;
  for (int hour = 1; hour < 24; hour += 2) {
    config.fault.scheduled.push_back(
        {SimTime::Hours(hour) + SimTime::Seconds(17), FaultClass::kHostCrash,
         /*target=*/-1});
  }

  TraceSet trace = TraceFor(config);
  ClusterManager manager(config, trace);
  ClusterMetrics metrics = manager.Run();

  // The path under test actually ran: crashes were injected and recovered,
  // in-flight migrations were rolled back, and the cluster kept operating.
  const FaultInjector& injector = manager.fault_injector();
  EXPECT_GT(injector.injected(FaultClass::kHostCrash), 0u);
  EXPECT_EQ(injector.injected(FaultClass::kHostCrash),
            injector.recovered(FaultClass::kHostCrash));
  EXPECT_GT(injector.injected(FaultClass::kMigrationAbort), 0u);
  EXPECT_EQ(injector.injected(FaultClass::kMigrationAbort),
            injector.recovered(FaultClass::kMigrationAbort));
  EXPECT_GT(metrics.reintegrations, 0u);

  // No page loss: the end-of-day conservation walk re-checks reservation and
  // working-set accounting for every host and VM (the per-interval walks
  // already ran inside Run() via the installed checker).
  ExpectNoVmLostOrDuplicated(manager);
  uint64_t before = checker_.checks_run();
  CheckClusterInvariants(manager, SimTime::Hours(24.0), checker_);
  EXPECT_GT(checker_.checks_run(), before) << "conservation walk ran no checks";
}

TEST_F(CheckClusterTest, ScheduledMigrationAbortsRollBackCleanly) {
  ClusterConfig config = SmallCluster(7);
  config.fault.enabled = true;
  config.fault.migration_abort_per_hour = 4.0;

  TraceSet trace = TraceFor(config);
  ClusterManager manager(config, trace);
  (void)manager.Run();

  const FaultInjector& injector = manager.fault_injector();
  EXPECT_GT(injector.injected(FaultClass::kMigrationAbort), 0u)
      << "no abort fired; the rollback path went unexercised";
  EXPECT_EQ(injector.injected(FaultClass::kMigrationAbort),
            injector.recovered(FaultClass::kMigrationAbort));
  ExpectNoVmLostOrDuplicated(manager);
  CheckClusterInvariants(manager, SimTime::Hours(24.0), checker_);
}

TEST(CheckClusterAggregatesTest, ChaosDayKeepsMaintainedCountsExact) {
  // The planner reads ClusterState's maintained counts (in-flight and
  // partial residents per host, full-at-consolidation VMs per home) instead
  // of walking residents, and the conservation walk re-derives them every
  // round. Drive every path that moves them off the happy path — crashes
  // mid partial migration (rollback + emergency reintegration), memory-server
  // failures (drain rollback + group return) and migration aborts — under a
  // strict checker.
  ClusterConfig config = SmallCluster(20160420);
  config.fault = FaultConfig::ChaosDay();
  config.fault.migration_abort_per_hour = 4.0;
  for (int hour = 1; hour < 24; hour += 2) {
    config.fault.scheduled.push_back(
        {SimTime::Hours(hour) + SimTime::Seconds(17), FaultClass::kHostCrash,
         /*target=*/-1});
  }
  InvariantChecker checker(CheckMode::kStrict);
  InvariantChecker::Install(&checker);
  ClusterManager manager(config, TraceFor(config));
  (void)manager.Run();
  InvariantChecker::Install(nullptr);

  const FaultInjector& injector = manager.fault_injector();
  EXPECT_GT(injector.injected(FaultClass::kHostCrash), 0u);
  EXPECT_GT(injector.injected(FaultClass::kMemoryServerFailure), 0u);
  EXPECT_GT(injector.injected(FaultClass::kMigrationAbort), 0u);
  EXPECT_GT(checker.checks_run(), 0u);
  EXPECT_EQ(checker.violation_count(), 0u);
  for (const check::Violation& v : checker.violations()) {
    ADD_FAILURE() << v.invariant << ": " << v.detail;
  }
}

// Each way of breaking the pending-completion list fails the walk under a
// strict checker: an in-flight VM whose entry was dropped, one listed
// twice, and one whose entry is already due but was never retired.
TEST(CheckClusterCompletionsTest, BrokenCompletionListFailsTheWalk) {
  using Peer = CheckClusterTestPeer;
  ClusterConfig config = SmallCluster(42);
  ClusterManager manager(config, TraceFor(config));
  int broken_instants = 0;
  // One second past each hour's first round, while its moves are in flight.
  for (int hour = 1; hour < 24; ++hour) {
    const SimTime now = SimTime::Hours(hour) + SimTime::Seconds(1);
    manager.RunUntil(now);
    Peer::RetireCompletions(manager);
    std::vector<PendingCompletion>& pending = Peer::Completions(manager);
    auto live = std::find_if(pending.begin(), pending.end(), [&](const PendingCompletion& c) {
      return manager.GetVm(c.vm).op_epoch == c.epoch;
    });
    if (live == pending.end()) {
      continue;
    }
    auto violations = [&] {
      InvariantChecker strict(CheckMode::kStrict);
      CheckClusterInvariants(manager, now, strict);
      uint64_t found = 0;
      for (const check::Violation& v : strict.violations()) {
        found += std::string(v.invariant) == "cluster.completion_pending_exact" ? 1 : 0;
      }
      EXPECT_EQ(found, strict.violation_count()) << "only the list was broken";
      return found;
    };
    EXPECT_EQ(violations(), 0u) << "the unbroken list at " << now.seconds() << " s";
    const PendingCompletion entry = *live;
    pending.erase(live);
    EXPECT_EQ(violations(), 1u) << "dropped entry";
    pending.push_back(entry);
    pending.push_back(entry);
    EXPECT_EQ(violations(), 1u) << "duplicated entry";
    pending.pop_back();
    pending.back().done = now - SimTime::Micros(1);
    EXPECT_EQ(violations(), 1u) << "due entry left behind";
    pending.back().done = entry.done;
    ++broken_instants;
  }
  (void)manager.Run();
  EXPECT_GT(broken_instants, 0) << "no migration was in flight at any probe";
}

// A memory server follows its home's S3 transitions between rounds too: a
// strict walk every five seconds of a day finds a powered memory server only
// on a home that is asleep or resuming. The probes cover homes that are
// powered while partials homed on them run elsewhere (woken for a swap group
// or a return), where a resume that skipped its memory-server refresh would
// leave the server on.
TEST(CheckClusterMemoryServerTest, MemoryServersFollowHostPowerBetweenRounds) {
  using Peer = CheckClusterTestPeer;
  ClusterConfig config = SmallCluster(42);
  ClusterManager manager(config, TraceFor(config));
  uint64_t violations = 0;
  uint64_t powered_homes_serving_partials = 0;
  for (SimTime now = SimTime::Seconds(5); now < SimTime::Hours(24.0);
       now = now + SimTime::Seconds(5)) {
    manager.RunUntil(now);
    Peer::RetireCompletions(manager);
    InvariantChecker strict(CheckMode::kStrict);
    CheckClusterInvariants(manager, now, strict);
    violations += strict.violation_count();
    for (size_t h = 0; h < manager.num_hosts(); ++h) {
      const ClusterHost& host = manager.GetHost(static_cast<HostId>(h));
      if (host.IsHomeHost() && host.IsPowered() && manager.PartialsHomedAt(host.id()) > 0) {
        ++powered_homes_serving_partials;
      }
    }
  }
  EXPECT_EQ(violations, 0u);
  EXPECT_GT(powered_homes_serving_partials, 0u) << "no probe saw the window under test";
  (void)manager.Run();
}

TEST_F(CheckClusterTest, CleanDayRunsMillionsOfChecksWithZeroViolations) {
  ClusterConfig config = SmallCluster(42);
  TraceSet trace = TraceFor(config);
  ClusterManager manager(config, trace);
  (void)manager.Run();
  // The per-interval walks plus the hypervisor/power hooks all executed.
  EXPECT_GT(checker_.checks_run(), 10000u);
  ExpectNoVmLostOrDuplicated(manager);
}

// Vacates, swap legs and group returns move a home's VMs through one
// Actuator::RelocateGroup, which books each host's reservation once for the
// whole group. The walk after every round re-derives every reservation from
// the residents (cluster.reservation_conservation), so a group that booked
// its destination's reservation for all but one VM would fire on the first
// round a group of two or more moved.
TEST_F(CheckClusterTest, GroupMovesBookEveryVmsReservation) {
  ClusterConfig config = SmallCluster(5);
  config.SetVmsPerHome(45);
  TraceSet trace = TraceFor(config);
  ClusterManager manager(config, trace);
  // Round by round, so the first round that breaks a reservation names
  // itself before a later release could underflow it.
  for (int round = 0; round < 288; ++round) {
    manager.RunUntil(config.planning_interval * round);
    ASSERT_EQ(checker_.violation_count(), 0u) << "after round " << round;
  }
  ClusterMetrics metrics = manager.Run();
  // Groups of many VMs moved in every direction.
  EXPECT_GT(metrics.partial_migrations, 10u * static_cast<uint64_t>(config.vms_per_home));
  EXPECT_GT(metrics.reintegrations, static_cast<uint64_t>(config.vms_per_home));
  EXPECT_GT(metrics.full_to_partial_swaps, 0u);
  EXPECT_GT(checker_.checks_run(), 10000u);
  ExpectNoVmLostOrDuplicated(manager);
}

}  // namespace
}  // namespace oasis
