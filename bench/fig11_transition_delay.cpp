// Figure 11: distribution of user-perceived idle->active transition delays
// for different numbers of consolidation hosts.
//
// Paper reference points: transitions in full VMs are free; the zero-latency
// fraction falls from 75% (2 consolidation hosts) to 38% (12) as more VMs
// live as partials; reintegration delays stay under ~4 s, reaching ~19 s at
// the 99.99th percentile during resume storms.

#include <cstdio>
#include <iostream>

#include "bench/bench_util.h"
#include "src/common/csv.h"
#include "src/common/table.h"
#include "src/exp/exp.h"
#include "src/check/run_scope.h"

int main() {
  oasis::check::RunScope run_scope;
  using namespace oasis;
  PrintExperimentHeader(std::cout, "Figure 11 - Idle->active transition delays",
                        "FulltoPartial, weekday, 30 home hosts; delay CDF vs number of "
                        "consolidation hosts (paper: zero-latency 75% at 2 hosts -> 38% "
                        "at 12; p99.99 <= 19 s).");

  auto csv_file = CsvFileFor("fig11_delay_cdf");
  std::unique_ptr<CsvWriter> csv;
  if (csv_file) {
    csv = std::make_unique<CsvWriter>(
        *csv_file, std::vector<std::string>{"consolidation_hosts", "delay_s", "cdf"});
  }
  // One run per consolidation-host count, executed by the runner.
  const int host_counts[] = {2, 4, 6, 8, 10, 12};
  exp::ExperimentPlan plan;
  for (int hosts : host_counts) {
    plan.Add(PaperCluster(ConsolidationPolicy::kFullToPartial, hosts, DayKind::kWeekday));
  }
  std::vector<SimulationResult> results = exp::RunParallel(plan);

  TextTable table({"consolidation hosts", "transitions", "zero-delay", "p50 (s)", "p90 (s)",
                   "p99 (s)", "p99.99 (s)", "max (s)"});
  size_t next = 0;
  for (int hosts : host_counts) {
    const EmpiricalCdf& d = results[next++].metrics.transition_delay_s;
    if (d.empty()) {
      continue;
    }
    table.AddRow({std::to_string(hosts), std::to_string(d.count()),
                  TextTable::Pct(d.FractionAtOrBelow(0.001)), TextTable::Num(d.Quantile(0.5), 2),
                  TextTable::Num(d.Quantile(0.9), 2), TextTable::Num(d.Quantile(0.99), 2),
                  TextTable::Num(d.Quantile(0.9999), 2), TextTable::Num(d.Max(), 2)});
    if (csv) {
      for (auto& [value, fraction] : d.Curve(200)) {
        csv->WriteRow({std::to_string(hosts), TextTable::Num(value, 3),
                       TextTable::Num(fraction, 4)});
      }
    }
  }
  table.Print(std::cout);

  std::printf("\nMore consolidation hosts keep more VMs partial, so fewer transitions are\n"
              "free — but the non-zero delays stay small (reintegration + wake-up), which\n"
              "is the paper's argument that consolidation barely hurts productivity.\n");
  return 0;
}
