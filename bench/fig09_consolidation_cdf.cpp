// Figure 9: CDF of the consolidation ratio — the number of VMs resident on
// each powered consolidation host, sampled every interval over the day.
//
// Paper reference points: the median rises from 60 VMs per host (Default) to
// 93 (FulltoPartial); NewHome overlaps FulltoPartial; the tail approaches
// ~800 VMs on one host (the 128 GiB capacity bound with ~165 MiB partials).

#include <cstdio>
#include <iostream>

#include "bench/bench_util.h"
#include "src/common/table.h"
#include "src/exp/exp.h"
#include "src/check/run_scope.h"

int main() {
  oasis::check::RunScope run_scope;
  using namespace oasis;
  PrintExperimentHeader(std::cout, "Figure 9 - CDF of consolidation ratio",
                        "VMs per powered consolidation host, 30 home + 4 consolidation "
                        "hosts, weekday (paper: median 60 Default vs 93 FulltoPartial).");

  // One run per policy plus the FulltoPartial curve run at the end, planned
  // together and executed on OASIS_JOBS workers; the serial harness ran the
  // same five simulations one after another.
  exp::ExperimentPlan plan;
  for (ConsolidationPolicy policy : kAllPolicies) {
    plan.Add(PaperCluster(policy, 4, DayKind::kWeekday));
  }
  plan.Add(PaperCluster(ConsolidationPolicy::kFullToPartial, 4, DayKind::kWeekday));
  std::vector<SimulationResult> results = exp::RunParallel(plan);

  TextTable table({"policy", "p10", "p25", "median", "p75", "p90", "p99", "max"});
  size_t next = 0;
  for (ConsolidationPolicy policy : kAllPolicies) {
    SimulationResult& result = results[next++];
    const EmpiricalCdf& cdf = result.metrics.consolidation_ratio;
    if (cdf.empty()) {
      table.AddRow({ConsolidationPolicyName(policy), "-", "-", "-", "-", "-", "-", "-"});
      continue;
    }
    table.AddRow({ConsolidationPolicyName(policy), TextTable::Num(cdf.Quantile(0.10), 0),
                  TextTable::Num(cdf.Quantile(0.25), 0), TextTable::Num(cdf.Quantile(0.5), 0),
                  TextTable::Num(cdf.Quantile(0.75), 0), TextTable::Num(cdf.Quantile(0.9), 0),
                  TextTable::Num(cdf.Quantile(0.99), 0), TextTable::Num(cdf.Max(), 0)});
  }
  table.Print(std::cout);

  std::printf("\nCDF series (VMs per host at cumulative fraction), FulltoPartial:\n");
  SimulationResult& result = results[next];
  for (auto& [value, fraction] : result.metrics.consolidation_ratio.Curve(10)) {
    std::printf("  %4.0f VMs -> %.0f%%\n", value, fraction * 100.0);
  }
  return 0;
}
