// Simulates a full day of a VDI server farm and writes a detailed operator
// report: energy breakdown, hourly timeline, latency percentiles, traffic,
// and the activity trace used (replayable via trace files).
//
//   $ ./build/examples/vdi_farm_day [trace-file]
//
// With a trace-file argument the day is driven by that trace (as produced by
// a previous run's `vdi_trace.txt`); otherwise a fresh synthetic weekday is
// generated and saved to vdi_trace.txt for reproduction. A malformed trace
// file exits 2; a path that cannot be opened exits 1.

#include <cstdio>
#include <iostream>

#include "src/common/table.h"
#include "src/cluster/strategy.h"
#include "src/core/oasis.h"
#include "src/exp/exp.h"
#include "src/trace/trace_io.h"
#include "src/trace/trace_stats.h"
#include "src/check/run_scope.h"
#include "src/obs/obs.h"

int main(int argc, char** argv) {
  oasis::check::RunScope run_scope;
  using namespace oasis;

  SimulationConfig config;
  config.cluster.policy = ConsolidationPolicy::kFullToPartial;
  config.seed = 2016;
  obs::ApplySeedOverride(&config.seed);
  ApplyPolicyOverride(&config.cluster);  // honour OASIS_POLICY

  if (argc > 1) {
    StatusOr<TraceFile> loaded = ReadTraceFromPath(argv[1]);
    if (!loaded.ok()) {
      std::fprintf(stderr, "cannot load trace %s: %s\n", argv[1],
                   loaded.status().ToString().c_str());
      // A malformed trace is bad input (exit 2); an unreadable path stays 1.
      return loaded.status().code() == StatusCode::kInvalidArgument ? 2 : 1;
    }
    config.fixed_trace = loaded->users;
    config.day = loaded->kind;
    std::printf("Replaying %zu-user %s trace from %s\n", loaded->users.size(),
                DayKindName(loaded->kind), argv[1]);
  }

  // Single-run plan via the experiment runner (identical to a direct
  // ClusterSimulation::Run at any OASIS_JOBS setting).
  exp::ExperimentPlan plan;
  plan.Add(config);
  SimulationResult result = std::move(exp::RunParallel(plan)[0]);
  const ClusterMetrics& m = result.metrics;

  if (argc <= 1) {
    TraceFile out{config.day, result.trace};
    if (WriteTraceToPath("vdi_trace.txt", out).ok()) {
      std::printf("Trace saved to vdi_trace.txt (replay with: vdi_farm_day vdi_trace.txt)\n");
    }
  }

  std::printf("\n=== VDI farm report: %d VMs on %d+%d hosts, %s, %s ===\n",
              config.cluster.TotalVms(), config.cluster.num_home_hosts,
              config.cluster.num_consolidation_hosts,
              ConsolidationPolicyName(config.cluster.policy), DayKindName(config.day));

  std::printf("\nWorkload: peak %.0f%% of users simultaneously active, mean %.1f%%\n",
              PeakActiveFraction(result.trace) * 100.0,
              MeanActiveFraction(result.trace) * 100.0);

  TextTable energy({"component", "kWh", "share"});
  double total = ToKWh(m.TotalEnergy());
  energy.AddRow({"home hosts", TextTable::Num(ToKWh(m.home_host_energy), 2),
                 TextTable::Pct(ToKWh(m.home_host_energy) / total)});
  energy.AddRow({"consolidation hosts", TextTable::Num(ToKWh(m.consolidation_host_energy), 2),
                 TextTable::Pct(ToKWh(m.consolidation_host_energy) / total)});
  energy.AddRow({"memory servers", TextTable::Num(ToKWh(m.memory_server_energy), 2),
                 TextTable::Pct(ToKWh(m.memory_server_energy) / total)});
  energy.AddRow({"total", TextTable::Num(total, 2), "100.0%"});
  energy.AddRow({"baseline (no consolidation)", TextTable::Num(ToKWh(m.baseline_energy), 2),
                 "-"});
  energy.Print(std::cout);
  std::printf("energy savings: %.1f%%\n", m.EnergySavings() * 100.0);

  std::printf("\nOperations: %llu full migrations, %llu partial migrations, "
              "%llu reintegrations, %llu host sleeps, %llu wakes, %llu FulltoPartial swaps\n",
              static_cast<unsigned long long>(m.full_migrations),
              static_cast<unsigned long long>(m.partial_migrations),
              static_cast<unsigned long long>(m.reintegrations),
              static_cast<unsigned long long>(m.host_sleeps),
              static_cast<unsigned long long>(m.host_wakes),
              static_cast<unsigned long long>(m.full_to_partial_swaps));

  if (m.transition_delay_s.count() > 0) {
    std::printf("\nUser experience over %zu idle->active transitions:\n",
                m.transition_delay_s.count());
    std::printf("  instant: %.1f%%   p90: %.1fs   p99: %.1fs   worst: %.1fs\n",
                m.transition_delay_s.FractionAtOrBelow(0.001) * 100.0,
                m.transition_delay_s.Quantile(0.90), m.transition_delay_s.Quantile(0.99),
                m.transition_delay_s.Max());
  }

  std::printf("\nNetwork: %s\n", m.traffic.Summary().c_str());

  std::printf("\nHourly timeline (active VMs / powered hosts):\n ");
  for (size_t i = 0; i < m.timeline.size(); i += 12) {
    std::printf(" %02zu:00=%d/%d", i / 12, m.timeline[i].active_vms,
                m.timeline[i].powered_hosts);
    if ((i / 12) % 6 == 5) {
      std::printf("\n ");
    }
  }
  std::printf("\n");
  return 0;
}
