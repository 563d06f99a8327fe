// Capacity-planning what-if tool: given a fleet size and workload intensity,
// sweep consolidation-host counts and report the energy/latency trade-off so
// an operator can size an Oasis deployment.
//
//   $ ./build/examples/capacity_planner [home_hosts] [vms_per_host] [attendance%]
//
// e.g. `capacity_planner 20 40 60` evaluates a 20-host, 800-VM farm whose
// users attend 60% of weekdays.

#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "src/common/table.h"
#include "src/cluster/strategy.h"
#include "src/core/oasis.h"
#include "src/exp/exp.h"
#include "src/check/run_scope.h"
#include "src/obs/obs.h"

int main(int argc, char** argv) {
  oasis::check::RunScope run_scope;
  using namespace oasis;

  int home_hosts = argc > 1 ? std::atoi(argv[1]) : 30;
  int vms_per_host = argc > 2 ? std::atoi(argv[2]) : 30;
  double attendance = argc > 3 ? std::atof(argv[3]) / 100.0 : 0.76;
  if (home_hosts <= 0 || vms_per_host <= 0 || attendance < 0.0 || attendance > 1.0) {
    std::fprintf(stderr,
                 "usage: capacity_planner [home_hosts>0] [vms_per_host>0] [attendance 0-100]\n");
    return 1;
  }

  std::printf("Sizing an Oasis deployment: %d home hosts x %d VMs (%d total), "
              "%.0f%% weekday attendance.\n\n",
              home_hosts, vms_per_host, home_hosts * vms_per_host, attendance * 100.0);

  // Plan the full sweep (8 host counts x weekday/weekend) so the runner can
  // evaluate the what-if grid on OASIS_JOBS workers.
  exp::ExperimentPlan plan;
  for (int cons = 1; cons <= 8; ++cons) {
    SimulationConfig config;
    config.cluster.num_home_hosts = home_hosts;
    config.cluster.vms_per_home = vms_per_host;
    config.cluster.num_consolidation_hosts = cons;
    config.cluster.policy = ConsolidationPolicy::kFullToPartial;
    config.trace.weekday_attendance = attendance;
    config.seed = 77;
    obs::ApplySeedOverride(&config.seed);
    ApplyPolicyOverride(&config.cluster);  // honour OASIS_POLICY
    plan.Add(config);
    config.day = DayKind::kWeekend;
    plan.Add(config);
  }
  std::vector<SimulationResult> results = exp::RunParallel(plan);

  TextTable table({"consolidation hosts", "weekday savings", "weekend savings",
                   "instant transitions", "p99 delay (s)", "daily rack kWh"});
  double best_savings = 0.0;
  int best_hosts = 0;
  for (int cons = 1; cons <= 8; ++cons) {
    SimulationResult& weekday = results[(cons - 1) * 2];
    SimulationResult& weekend = results[(cons - 1) * 2 + 1];

    const ClusterMetrics& m = weekday.metrics;
    double instant = m.transition_delay_s.count() > 0
                         ? m.transition_delay_s.FractionAtOrBelow(0.001)
                         : 1.0;
    double p99 =
        m.transition_delay_s.count() > 0 ? m.transition_delay_s.Quantile(0.99) : 0.0;
    table.AddRow({std::to_string(cons), TextTable::Pct(m.EnergySavings()),
                  TextTable::Pct(weekend.metrics.EnergySavings()), TextTable::Pct(instant),
                  TextTable::Num(p99, 1), TextTable::Num(ToKWh(m.TotalEnergy()), 1)});
    if (m.EnergySavings() > best_savings + 0.005) {
      best_savings = m.EnergySavings();
      best_hosts = cons;
    }
  }
  table.Print(std::cout);

  std::printf("\nRecommendation: %d consolidation host(s) — smallest count within 0.5%% of "
              "the best weekday savings (%.1f%%).\n",
              best_hosts, best_savings * 100.0);
  std::printf("Assumptions: 128 GiB hosts, 4 GiB VMs, FulltoPartial policy, %.1f W memory "
              "servers.\n",
              MemoryServerProfile{}.TotalWatts());
  return 0;
}
