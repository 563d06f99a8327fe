// Figure 10: weekday data-transfer breakdown per policy.
//
// Paper reference point: FulltoPartial increases both partial- and
// full-migration traffic over Default — it trades network bytes (cheap
// inside a rack) for energy.

#include <cstdio>
#include <iostream>

#include "bench/bench_util.h"
#include "src/common/table.h"
#include "src/exp/exp.h"
#include "src/check/run_scope.h"

int main() {
  oasis::check::RunScope run_scope;
  using namespace oasis;
  PrintExperimentHeader(std::cout, "Figure 10 - Weekday data transfer breakdown",
                        "Per-policy network volume over one weekday, 30+4 cluster "
                        "(memory uploads travel the host-local SAS link, not the rack).");

  // Four independent policy runs, planned up front for the runner.
  exp::ExperimentPlan plan;
  for (ConsolidationPolicy policy : kAllPolicies) {
    plan.Add(PaperCluster(policy, 4, DayKind::kWeekday));
  }
  std::vector<SimulationResult> results = exp::RunParallel(plan);

  TextTable table({"policy", "full migration", "descriptor", "on-demand", "reintegration",
                   "network total", "SAS uploads"});
  size_t next = 0;
  for (ConsolidationPolicy policy : kAllPolicies) {
    const TrafficAccounting& t = results[next++].metrics.traffic;
    table.AddRow({ConsolidationPolicyName(policy),
                  FormatBytes(t.Total(TrafficCategory::kFullMigration)),
                  FormatBytes(t.Total(TrafficCategory::kPartialDescriptor)),
                  FormatBytes(t.Total(TrafficCategory::kOnDemandPages)),
                  FormatBytes(t.Total(TrafficCategory::kReintegration)),
                  FormatBytes(t.NetworkTotal()),
                  FormatBytes(t.Total(TrafficCategory::kMemoryUpload))});
  }
  table.Print(std::cout);

  std::printf("\nFulltoPartial moves more bytes than Default in both categories — the\n"
              "paper's energy-for-traffic trade (acceptable when home and consolidation\n"
              "hosts share a rack with abundant bandwidth, section 5.4).\n");
  return 0;
}
