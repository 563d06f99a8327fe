// Figure 12: sensitivity of energy savings to cluster shape. The 900 VMs are
// redistributed over fewer, denser home hosts (30x30, 20x45, 18x50, 15x60,
// 10x90) with 2-4 consolidation hosts.
//
// Paper reference point: savings are essentially independent of how many VMs
// each home host carries.

#include <cstdio>
#include <iostream>

#include "bench/bench_util.h"
#include "src/common/table.h"
#include "src/exp/exp.h"
#include "src/check/run_scope.h"

int main() {
  oasis::check::RunScope run_scope;
  using namespace oasis;
  int runs = std::max(1, BenchRuns() - 2);
  PrintExperimentHeader(std::cout, "Figure 12 - Sensitivity to cluster shape",
                        "900 VMs total, FulltoPartial; rows are home-hosts x VMs-per-host, "
                        "columns add consolidation hosts (paper: savings are flat).");

  struct Shape {
    int homes;
    int vms_per_home;
  };
  const Shape shapes[] = {{30, 30}, {20, 45}, {18, 50}, {15, 60}, {10, 90}};

  for (DayKind day : {DayKind::kWeekday, DayKind::kWeekend}) {
    std::printf("\n-- %s --\n", DayKindName(day));
    // Plan the day's full shape x consolidation grid, run it on OASIS_JOBS
    // workers, then aggregate in plan order (byte-identical to serial).
    exp::ExperimentPlan plan;
    std::vector<exp::RepetitionSpan> spans;
    for (const Shape& shape : shapes) {
      for (int cons : {2, 3, 4}) {
        SimulationConfig config = PaperCluster(ConsolidationPolicy::kFullToPartial, cons, day);
        config.cluster.num_home_hosts = shape.homes;
        // Denser home hosts are bigger servers: capacity (and, proportionally,
        // host power) scales with the VM count, as §5.6's "vary the server
        // capacity" implies.
        config.cluster.SetVmsPerHome(shape.vms_per_home);
        spans.push_back(plan.AddRepetitions(config, runs));
      }
    }
    std::vector<SimulationResult> results = exp::RunParallel(plan);

    TextTable table({"cluster shape", "+2 hosts", "+3 hosts", "+4 hosts"});
    size_t datapoint = 0;
    for (const Shape& shape : shapes) {
      std::vector<std::string> row{std::to_string(shape.homes) + " x " +
                                   std::to_string(shape.vms_per_home)};
      for (int cons : {2, 3, 4}) {
        (void)cons;
        RepeatedRunResult result = exp::CollectRepeated(results, spans[datapoint++]);
        row.push_back(TextTable::Pct(result.savings.mean()));
      }
      table.AddRow(row);
    }
    table.Print(std::cout);
  }
  return 0;
}
