// Datacenter day: one simulated weekday for a sharded, hierarchical
// datacenter — pods of racks, every rack a self-contained paper-style
// cluster running its own consolidation plan, executed as parallel shards
// on the deterministic experiment runner (OASIS_JOBS), merged in topology
// order, and then coordinated by the global drain tier.
//
// The default grid is 8 pods x 32 racks, each rack 36 home hosts x 110 VDI
// VMs plus 4 consolidation hosts: 10,240 hosts serving 1,013,760 users. A
// light deterministic fault mix (host crashes) runs per rack, and the
// assisted coordinator samples rack-level power-cap windows, so the
// inter-rack tier has real constraints to respect. Override the grid with
// OASIS_DC_RACKS (CI smokes 8 racks) and the shard parallelism with
// OASIS_JOBS.
//
// Three coordination modes are compared over the *same* rack results:
//   per-rack-local        every rack keeps its parked VMs (the lower bound)
//   global-greedy         idealized flat packing of all parked VMs (upper
//                         bound: no locality, caps, hysteresis or cost)
//   coordinator-assisted  the drain tier: near-empty racks export their
//                         parked load to same-pod sponsors and sleep their
//                         consolidation hosts, paying cross-rack migration
//                         traffic, honouring cap windows and never
//                         sponsoring into a faulted rack
//
// Stdout is deterministic (timing goes to stderr via obs::TimingLine) and
// ends with the merged ledger digest — pinned by the golden suite and
// asserted bit-identical across OASIS_JOBS=1/4 and rack execution order by
// the metamorphic suite.

#include <cstdio>
#include <iostream>
#include <string>

#include "bench/bench_util.h"
#include "src/check/run_scope.h"
#include "src/common/table.h"
#include "src/dc/coordinator.h"
#include "src/dc/ledger.h"
#include "src/dc/runner.h"
#include "src/dc/topology.h"
#include "src/obs/obs.h"

namespace oasis {
namespace dc {
namespace {

DatacenterConfig DayConfig() {
  DatacenterConfig config;
  config.total_racks = 256;
  config.racks_per_pod = 32;
  config.rack.home_hosts = 36;
  config.rack.consolidation_hosts = 4;
  config.rack.vms_per_home = 110;  // 36 x 110 x 256 racks = 1,013,760 users
  // A light deterministic fault mix: ~0.5 expected host crashes per
  // rack-day, so a realistic fraction of racks is fault-tainted and the
  // coordinator's sponsor exclusion has teeth.
  config.rack.fault.enabled = true;
  config.rack.fault.host_crash_per_hour = 0.02;
  // The assisted tier samples rack power-cap windows (2 h at ~1 window per
  // 4 racks per day) and refuses to sponsor load into a capped rack. The
  // 3200 W only switches the windows on: no rack's power is ever compared
  // against it.
  config.coordinator.rack_power_cap_watts = 3200.0;
  config.coordinator.cap_events_per_rack_day = 0.25;
  config.seed = 20160418;  // EuroSys'16 opening day
  obs::ApplySeedOverride(&config.seed);
  ApplyDatacenterEnvOverrides(&config);
  // Honour OASIS_POLICY for the rack-local planner, with the usual exit-2
  // rejection of unregistered names.
  ClusterConfig policy_probe;
  policy_probe.strategy_name = config.rack.strategy_name;
  ApplyPolicyOverride(&policy_probe);
  config.rack.strategy_name = policy_probe.strategy_name;
  return config;
}

CoordinatorStats RunMode(const DatacenterRun& run, CoordinatorMode mode) {
  CoordinatorConfig config = run.config.coordinator;
  config.mode = mode;
  return GlobalCoordinator(config).Coordinate(run);
}

int DatacenterDay() {
  DatacenterConfig config = DayConfig();
  StatusOr<DatacenterTopology> topology = DatacenterTopology::Build(config);
  if (!topology.ok()) {
    std::fprintf(stderr, "invalid datacenter config: %s\n",
                 topology.status().ToString().c_str());
    return 1;
  }

  // The last pod may be partial, so the rack count is not pods x racks/pod.
  std::printf("topology: %d racks in %d pod(s) of up to %d racks, %d hosts, %lld users\n",
              config.total_racks, config.NumPods(), config.racks_per_pod,
              config.TotalHosts(), config.TotalUsers());
  std::printf("rack: %d home hosts x %d VMs + %d consolidation hosts (%s, %s)\n\n",
              config.rack.home_hosts, config.rack.vms_per_home,
              config.rack.consolidation_hosts, config.rack.strategy_name.c_str(),
              ConsolidationPolicyName(config.rack.policy));

  ShardRunner runner;
  obs::TimingLine("simulating %d rack shards at jobs=%d ...", config.total_racks,
                  runner.jobs());
  DatacenterRun run = runner.Run(*topology);

  // All three coordination modes replay the same shard results; the rack
  // simulations are not re-run.
  const CoordinatorStats local = RunMode(run, CoordinatorMode::kOff);
  const CoordinatorStats greedy = RunMode(run, CoordinatorMode::kGlobalGreedy);
  const CoordinatorStats assisted = RunMode(run, CoordinatorMode::kAssisted);

  TextTable table({"coordination", "savings", "net tier effect (kWh)", "drains",
                   "vms drained", "cross-rack traffic"});
  struct ModeRow {
    CoordinatorMode mode;
    const CoordinatorStats* stats;
  };
  const ModeRow rows[] = {{CoordinatorMode::kOff, &local},
                          {CoordinatorMode::kGlobalGreedy, &greedy},
                          {CoordinatorMode::kAssisted, &assisted}};
  for (const ModeRow& row : rows) {
    DatacenterLedger ledger = DatacenterLedger::Build(run, *row.stats);
    table.AddRow({CoordinatorModeName(row.mode), TextTable::Pct(ledger.CoordinatedSavings()),
                  TextTable::Num(ToKWh(row.stats->NetSaved()), 1),
                  std::to_string(row.stats->drains_started),
                  std::to_string(row.stats->vms_drained),
                  FormatBytes(row.stats->cross_rack_traffic_bytes)});
  }
  table.Print(std::cout);

  std::printf(
      "\nassisted tier: %llu drain-intervals across %llu drains (%llu returns), "
      "%llu cap windows blocked %llu sponsorships, %llu sponsor lookups skipped "
      "faulted racks\n",
      static_cast<unsigned long long>(assisted.drain_intervals),
      static_cast<unsigned long long>(assisted.drains_started),
      static_cast<unsigned long long>(assisted.drain_returns),
      static_cast<unsigned long long>(assisted.cap_windows),
      static_cast<unsigned long long>(assisted.cap_blocked_sponsorships),
      static_cast<unsigned long long>(assisted.fault_excluded_sponsors));

  // The merged per-rack ledger (assisted mode), folded in rack order.
  DatacenterLedger ledger = DatacenterLedger::Build(run, assisted);
  TextTable pods({"pod", "racks", "savings", "energy (kWh)", "baseline (kWh)"});
  for (const PodLedgerRow& pod : ledger.pods) {
    pods.AddRow({std::to_string(pod.pod), std::to_string(pod.racks),
                 TextTable::Pct(pod.savings), TextTable::Num(ToKWh(pod.total_energy), 1),
                 TextTable::Num(ToKWh(pod.baseline_energy), 1)});
  }
  std::printf("\n");
  pods.Print(std::cout);

  std::printf("\ndatacenter: %llu migrations, %llu faults injected, %llu events\n",
              static_cast<unsigned long long>(ledger.total_migrations),
              static_cast<unsigned long long>(ledger.total_faults),
              static_cast<unsigned long long>(ledger.total_events));
  std::printf("merged ledger digest: %016llx\n",
              static_cast<unsigned long long>(ledger.Digest()));
  return 0;
}

}  // namespace
}  // namespace dc
}  // namespace oasis

int main() {
  oasis::check::RunScope run_scope;
  oasis::PrintExperimentHeader(
      std::cout, "Datacenter day - sharded hierarchical simulation",
      "Pods of self-contained consolidation racks executed as parallel "
      "deterministic shards, with a global drain tier coordinating only "
      "between racks.");
  return oasis::dc::DatacenterDay();
}
