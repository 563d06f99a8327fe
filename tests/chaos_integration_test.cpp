// Chaos integration: a full simulated cluster day with nonzero rates for
// every live fault class. Validates through the observability export
// that every injected fault has a matching recovery, that no VM is lost,
// and that energy/time accounting still balances to the simulated day.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "src/check/check.h"
#include "src/core/oasis.h"
#include "src/fault/fault.h"
#include "src/obs/trace.h"
#include "src/trace/trace_generator.h"
#include "tests/mini_json.h"

namespace oasis {
namespace {

using oasis::testing::JsonParser;
using oasis::testing::JsonValue;

ClusterConfig ChaosCluster() {
  ClusterConfig config;
  config.num_home_hosts = 8;
  config.num_consolidation_hosts = 3;
  config.vms_per_home = 12;
  config.policy = ConsolidationPolicy::kFullToPartial;
  config.seed = 20160418;
  config.fault = FaultConfig::ChaosDay();
  // Push the scheduled classes hard enough that each fires several times.
  config.fault.host_crash_per_hour = 0.5;
  config.fault.memory_server_failure_per_hour = 0.75;
  config.fault.migration_abort_per_hour = 2.0;
  return config;
}

TraceSet ChaosTrace(const ClusterConfig& config) {
  TraceGenerator generator(TraceGeneratorConfig{}, config.seed ^ 0x7ACEBA5Eull);
  return generator.GenerateTraceSet(config.TotalVms(), DayKind::kWeekday);
}

// Every chaos day also runs the conservation walk after each planning round:
// crashes, memory-server failures and aborts drive every relocation path.
class ChaosIntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Tracer::Global().SetCapacity(1 << 19);
    obs::Tracer::Global().set_enabled(true);
    check::InvariantChecker::Install(&checker_);
  }
  void TearDown() override {
    check::InvariantChecker::Install(nullptr);
    obs::Tracer::Global().set_enabled(false);
    obs::Tracer::Global().Clear();
    EXPECT_EQ(checker_.violation_count(), 0u) << "invariant violations recorded; "
                                                 "see stderr for the structured report";
  }

  check::InvariantChecker checker_{check::CheckMode::kWarn};
};

TEST_F(ChaosIntegrationTest, FullChaosDayPairsEveryInjectionWithRecovery) {
  ClusterConfig config = ChaosCluster();
  TraceSet trace = ChaosTrace(config);
  ClusterManager manager(config, trace);
  ClusterMetrics metrics = manager.Run();
  const FaultInjector& injector = manager.fault_injector();

  // Every live class fired, and every injection recovered.
  for (FaultClass fault : kLiveFaultClasses) {
    EXPECT_GT(injector.injected(fault), 0u) << FaultClassName(fault);
    EXPECT_EQ(injector.injected(fault), injector.recovered(fault))
        << FaultClassName(fault);
  }
  EXPECT_GT(metrics.faults_injected, 0u);
  EXPECT_EQ(metrics.faults_injected, metrics.faults_recovered);
  EXPECT_GT(metrics.crash_vm_restarts, 0u);
  EXPECT_GT(checker_.checks_run(), 0u);

  // No VM lost: every VM is resident exactly where the manager thinks it is,
  // and the cluster-wide census still adds up.
  size_t census = 0;
  for (size_t v = 0; v < manager.num_vms(); ++v) {
    const VmSlot& vm = manager.GetVm(static_cast<VmId>(v));
    ASSERT_LT(vm.location, manager.num_hosts()) << "vm " << v;
    EXPECT_TRUE(manager.GetHost(vm.location).HasVm(vm.id))
        << "vm " << v << " not resident at host " << vm.location;
  }
  for (size_t h = 0; h < manager.num_hosts(); ++h) {
    census += manager.GetHost(static_cast<HostId>(h)).vms().size();
  }
  EXPECT_EQ(census, static_cast<size_t>(config.TotalVms()));

  // Energy/time accounting balances: every host's power-state ledger covers
  // exactly the simulated day, crashes and emergency wakes included.
  for (size_t h = 0; h < manager.num_hosts(); ++h) {
    EXPECT_EQ(manager.GetHost(static_cast<HostId>(h)).ledger().TotalTime(),
              SimTime::Hours(24.0))
        << "host " << h;
  }
  EXPECT_GT(metrics.TotalEnergy(), 0.0);
  EXPECT_GT(metrics.baseline_energy, 0.0);
  EXPECT_LT(metrics.TotalEnergy(), metrics.baseline_energy);

  // The trace export is the external evidence: per class, the number of
  // inject instants matches the injector's count and the recover spans pair
  // up one-to-one.
  ASSERT_EQ(obs::Tracer::Global().dropped(), 0u)
      << "trace ring too small for the chaos day; counts would be partial";
  std::string path = ::testing::TempDir() + "/oasis_chaos.trace.jsonl";
  ASSERT_TRUE(obs::Tracer::Global().ExportJsonlFile(path).ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::map<std::string, uint64_t> names;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) {
      continue;
    }
    JsonValue event;
    ASSERT_TRUE(JsonParser::Parse(line, &event)) << line;
    if (event.has("cat") && event.at("cat").str == "fault") {
      ++names[event.at("name").str];
    }
  }
  for (FaultClass fault : kLiveFaultClasses) {
    std::string name = FaultClassName(fault);
    EXPECT_EQ(names["inject." + name], injector.injected(fault)) << name;
    EXPECT_EQ(names["recover." + name], injector.recovered(fault)) << name;
  }
  std::remove(path.c_str());
}

TEST_F(ChaosIntegrationTest, ChaosDayIsSeedDeterministic) {
  ClusterConfig config = ChaosCluster();
  TraceSet trace = ChaosTrace(config);
  ClusterManager a(config, trace);
  ClusterMetrics ma = a.Run();
  obs::Tracer::Global().Clear();
  ClusterManager b(config, trace);
  ClusterMetrics mb = b.Run();

  EXPECT_EQ(ma.faults_injected, mb.faults_injected);
  EXPECT_EQ(ma.faults_recovered, mb.faults_recovered);
  EXPECT_EQ(ma.crash_vm_restarts, mb.crash_vm_restarts);
  EXPECT_EQ(ma.host_wakes, mb.host_wakes);
  EXPECT_EQ(ma.reintegrations, mb.reintegrations);
  EXPECT_EQ(ma.TotalEnergy(), mb.TotalEnergy());  // bitwise, not approximate
  for (int c = 0; c < kNumFaultClasses; ++c) {
    FaultClass fault = static_cast<FaultClass>(c);
    EXPECT_EQ(a.fault_injector().injected(fault), b.fault_injector().injected(fault));
  }
}

TEST_F(ChaosIntegrationTest, DisabledAndZeroRateRunsAreByteIdentical) {
  // The acceptance bar for the disabled default: enabling the subsystem with
  // all rates at zero must not consume a single extra random draw, so the
  // run is bit-identical to one with the subsystem off.
  ClusterConfig off = ChaosCluster();
  off.fault = FaultConfig{};  // disabled default
  TraceSet trace = ChaosTrace(off);
  ClusterManager a(off, trace);
  ClusterMetrics ma = a.Run();

  ClusterConfig zeros = off;
  zeros.fault.enabled = true;  // enabled, but every rate/probability is 0.0
  ClusterManager b(zeros, trace);
  ClusterMetrics mb = b.Run();

  EXPECT_EQ(ma.TotalEnergy(), mb.TotalEnergy());
  EXPECT_EQ(ma.host_wakes, mb.host_wakes);
  EXPECT_EQ(ma.host_sleeps, mb.host_sleeps);
  EXPECT_EQ(ma.full_migrations, mb.full_migrations);
  EXPECT_EQ(ma.partial_migrations, mb.partial_migrations);
  EXPECT_EQ(ma.reintegrations, mb.reintegrations);
  ASSERT_EQ(ma.timeline.size(), mb.timeline.size());
  for (size_t i = 0; i < ma.timeline.size(); ++i) {
    EXPECT_EQ(ma.timeline[i].active_vms, mb.timeline[i].active_vms) << i;
    EXPECT_EQ(ma.timeline[i].powered_hosts, mb.timeline[i].powered_hosts) << i;
    EXPECT_EQ(ma.timeline[i].partial_vms, mb.timeline[i].partial_vms) << i;
  }
  EXPECT_EQ(mb.faults_injected, 0u);
  EXPECT_EQ(mb.faults_recovered, 0u);
}

}  // namespace
}  // namespace oasis
