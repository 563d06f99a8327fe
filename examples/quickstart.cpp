// Quickstart: simulate one weekday on a 30-home / 4-consolidation-host VDI
// rack with the FulltoPartial policy and print the headline numbers.
//
//   $ ./build/examples/quickstart [policy]
//
// where policy is one of: onlypartial, default, fulltopartial, newhome.

#include <cstdio>
#include <cstring>
#include <string>

#include "src/cluster/strategy.h"
#include "src/core/oasis.h"
#include "src/exp/exp.h"
#include "src/check/run_scope.h"
#include "src/obs/obs.h"

namespace {

oasis::ConsolidationPolicy ParsePolicy(const std::string& name) {
  if (name == "onlypartial") {
    return oasis::ConsolidationPolicy::kOnlyPartial;
  }
  if (name == "default") {
    return oasis::ConsolidationPolicy::kDefault;
  }
  if (name == "newhome") {
    return oasis::ConsolidationPolicy::kNewHome;
  }
  return oasis::ConsolidationPolicy::kFullToPartial;
}

}  // namespace

int main(int argc, char** argv) {
  oasis::check::RunScope run_scope;
  oasis::SimulationConfig config;
  oasis::obs::ApplySeedOverride(&config.seed);
  oasis::ApplyPolicyOverride(&config.cluster);  // honour OASIS_POLICY
  config.cluster.policy =
      ParsePolicy(argc > 1 ? argv[1] : "fulltopartial");
  if (argc > 2 && std::string(argv[2]) == "weekend") {
    config.day = oasis::DayKind::kWeekend;
  }

  // A single-run plan through the experiment runner: with one run (or
  // OASIS_JOBS=1) this is exactly ClusterSimulation(config).Run().
  oasis::exp::ExperimentPlan plan;
  plan.Add(config);
  std::vector<oasis::SimulationResult> results = oasis::exp::RunParallel(plan);
  const oasis::ClusterMetrics& m = results[0].metrics;

  std::printf("Oasis quickstart: one simulated weekday, %d home + %d consolidation hosts, "
              "%d VMs, policy=%s\n",
              config.cluster.num_home_hosts, config.cluster.num_consolidation_hosts,
              config.cluster.TotalVms(),
              oasis::ConsolidationPolicyName(config.cluster.policy));
  std::printf("  baseline energy        : %.2f kWh\n", oasis::ToKWh(m.baseline_energy));
  std::printf("  oasis energy           : %.2f kWh  (homes %.2f + consolidation %.2f + "
              "memory servers %.2f)\n",
              oasis::ToKWh(m.TotalEnergy()), oasis::ToKWh(m.home_host_energy),
              oasis::ToKWh(m.consolidation_host_energy),
              oasis::ToKWh(m.memory_server_energy));
  std::printf("  energy savings         : %.1f%%\n", m.EnergySavings() * 100.0);
  std::printf("  migrations             : %llu full, %llu partial, %llu reintegrations\n",
              static_cast<unsigned long long>(m.full_migrations),
              static_cast<unsigned long long>(m.partial_migrations),
              static_cast<unsigned long long>(m.reintegrations));
  std::printf("  host sleeps/wakes      : %llu / %llu\n",
              static_cast<unsigned long long>(m.host_sleeps),
              static_cast<unsigned long long>(m.host_wakes));
  std::printf("  capacity exhaustions   : %llu\n",
              static_cast<unsigned long long>(m.capacity_exhaustions));
  if (m.transition_delay_s.count() > 0) {
    std::printf("  transition delay       : p50=%.2fs p99=%.2fs max=%.2fs over %zu events "
                "(%.0f%% are zero)\n",
                m.transition_delay_s.Quantile(0.5), m.transition_delay_s.Quantile(0.99),
                m.transition_delay_s.Max(), m.transition_delay_s.count(),
                m.transition_delay_s.FractionAtOrBelow(0.001) * 100.0);
  }
  std::printf("  network traffic        : %s\n", m.traffic.Summary().c_str());
  if (m.consolidation_ratio.count() > 0) {
    std::printf("  consolidation ratio    : median %.0f VMs per powered consolidation host\n",
                m.consolidation_ratio.Quantile(0.5));
  }
  std::printf("  timeline (time: active VMs / powered homes / powered consolidation / "
              "partials / full@cons):\n");
  for (size_t i = 0; i < m.timeline.size(); i += 24) {
    const oasis::IntervalSnapshot& s = m.timeline[i];
    std::printf("    %s  %3d / %2d / %d / %3d / %3d\n", s.time.ToClockString().c_str(),
                s.active_vms, s.powered_home_hosts, s.powered_consolidation_hosts,
                s.partial_vms, s.full_at_consolidation_vms);
  }
  return 0;
}
