// Figure 8: energy savings for one simulated day on a 30-home-host cluster,
// as the number of consolidation hosts varies from 2 to 12, for all four
// policies, weekday and weekend panels. Each datapoint averages five runs.
//
// Paper reference points: OnlyPartial ~6%; Default only marginally better;
// FulltoPartial up to 28% weekday / 43% weekend; NewHome adds nothing beyond
// FulltoPartial; savings level off at ~4 consolidation hosts.

#include <cstdio>
#include <iostream>
#include <string>

#include "bench/bench_util.h"
#include "src/common/csv.h"
#include "src/common/table.h"
#include "src/exp/exp.h"
#include "src/check/run_scope.h"

namespace oasis {
namespace {

void PrintPanel(DayKind day, int runs) {
  std::printf("\n-- %s (mean +/- stddev over %d runs) --\n", DayKindName(day), runs);
  auto csv_file = CsvFileFor(std::string("fig08_") + DayKindName(day));
  std::unique_ptr<CsvWriter> csv;
  if (csv_file) {
    csv = std::make_unique<CsvWriter>(
        *csv_file,
        std::vector<std::string>{"policy", "consolidation_hosts", "savings", "stddev"});
  }
  // Plan the whole panel grid (policy x hosts x runs) before executing:
  // the runner spreads the independent runs over OASIS_JOBS workers and the
  // second loop aggregates/prints in plan order, reproducing the serial
  // output byte-for-byte.
  exp::ExperimentPlan plan;
  std::vector<exp::RepetitionSpan> spans;
  const int host_counts[] = {2, 4, 6, 8, 10, 12};
  for (ConsolidationPolicy policy : kAllPolicies) {
    for (int hosts : host_counts) {
      spans.push_back(plan.AddRepetitions(PaperCluster(policy, hosts, day), runs));
    }
  }
  std::vector<SimulationResult> results = exp::RunParallel(plan);
  TextTable table({"policy", "2 hosts", "4 hosts", "6 hosts", "8 hosts", "10 hosts",
                   "12 hosts"});
  size_t datapoint = 0;
  for (ConsolidationPolicy policy : kAllPolicies) {
    std::vector<std::string> row{ConsolidationPolicyName(policy)};
    for (int hosts : host_counts) {
      RepeatedRunResult result = exp::CollectRepeated(results, spans[datapoint++]);
      row.push_back(TextTable::Pct(result.savings.mean()) + " +/- " +
                    TextTable::Pct(result.savings.sample_stddev()));
      if (csv) {
        csv->WriteRow({ConsolidationPolicyName(policy), std::to_string(hosts),
                       TextTable::Num(result.savings.mean(), 4),
                       TextTable::Num(result.savings.sample_stddev(), 4)});
      }
    }
    table.AddRow(row);
  }
  table.Print(std::cout);
}

}  // namespace
}  // namespace oasis

int main() {
  oasis::check::RunScope run_scope;
  using namespace oasis;
  int runs = BenchRuns();
  PrintExperimentHeader(std::cout, "Figure 8 - Energy savings vs consolidation hosts",
                        "30 home hosts x 30 VMs; savings normalized to all home hosts "
                        "left powered (paper: FulltoPartial 28% weekday / 43% weekend, "
                        "leveling off at 4 consolidation hosts).");
  PrintPanel(DayKind::kWeekday, runs);
  PrintPanel(DayKind::kWeekend, runs);
  return 0;
}
