// Table 3: energy savings with alternative memory-server implementations
// between the 42.2 W prototype and a hypothetical 1 W embedded design.
//
// Paper reference points: weekday 28% -> 41%, weekend 43% -> 68% as the
// memory server shrinks from 42.2 W to 1 W.

#include <iostream>

#include "bench/bench_util.h"
#include "src/common/table.h"
#include "src/exp/exp.h"
#include "src/check/run_scope.h"

int main() {
  oasis::check::RunScope run_scope;
  using namespace oasis;
  int runs = BenchRuns();
  PrintExperimentHeader(std::cout, "Table 3 - Alternative memory server implementations",
                        "FulltoPartial, 30+4 cluster; savings vs memory-server power "
                        "(paper: 28%/43% at 42.2 W rising to 41%/68% at 1 W).");

  // Plan the watts x day grid up front for the experiment runner.
  const double watt_points[] = {42.2, 16.0, 8.0, 4.0, 2.0, 1.0};
  exp::ExperimentPlan plan;
  std::vector<exp::RepetitionSpan> spans;
  for (double watts : watt_points) {
    for (DayKind day : {DayKind::kWeekday, DayKind::kWeekend}) {
      SimulationConfig config = PaperCluster(ConsolidationPolicy::kFullToPartial, 4, day);
      config.cluster.memory_server_power = MemoryServerProfile::WithPower(watts);
      spans.push_back(plan.AddRepetitions(config, runs));
    }
  }
  std::vector<SimulationResult> results = exp::RunParallel(plan);

  TextTable table({"memory server power (W)", "weekday savings", "weekend savings"});
  size_t datapoint = 0;
  for (double watts : watt_points) {
    std::vector<std::string> row{TextTable::Num(watts, 1)};
    for (DayKind day : {DayKind::kWeekday, DayKind::kWeekend}) {
      (void)day;
      RepeatedRunResult result = exp::CollectRepeated(results, spans[datapoint++]);
      row.push_back(TextTable::Pct(result.savings.mean()));
    }
    table.AddRow(row);
  }
  table.Print(std::cout);
  return 0;
}
