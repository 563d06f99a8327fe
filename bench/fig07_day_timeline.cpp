// Figure 7: number of active VMs and fully powered hosts over one simulated
// day, 30 home + 4 consolidation hosts, FulltoPartial policy.
//
// Paper reference points: diurnal weekday activity peaking around 14:00
// (never above 411 of 900 VMs = 46%) and bottoming out around 06:30; at the
// trough all 900 VMs fit into a handful of consolidation hosts.

#include <algorithm>
#include <cstdio>
#include <iostream>

#include "bench/bench_util.h"
#include "src/common/csv.h"
#include "src/common/table.h"
#include "src/exp/exp.h"
#include "src/check/run_scope.h"

namespace oasis {
namespace {

void PrintDay(DayKind day, const SimulationConfig& config, const SimulationResult& result) {
  const auto& timeline = result.metrics.timeline;

  if (auto file = CsvFileFor(std::string("fig07_") + DayKindName(day))) {
    CsvWriter csv(*file, {"hour", "active_vms", "powered_hosts", "powered_homes",
                          "powered_consolidation", "partial_vms"});
    for (const IntervalSnapshot& s : timeline) {
      csv.WriteRow({TextTable::Num(s.time.hours(), 3), std::to_string(s.active_vms),
                    std::to_string(s.powered_hosts), std::to_string(s.powered_home_hosts),
                    std::to_string(s.powered_consolidation_hosts),
                    std::to_string(s.partial_vms)});
    }
  }

  std::printf("\n-- %s --\n", DayKindName(day));
  TextTable table({"time", "active VMs", "powered hosts", "powered homes",
                   "powered consolidation", "partial VMs"});
  for (size_t i = 0; i < timeline.size(); i += 12) {  // hourly
    const IntervalSnapshot& s = timeline[i];
    table.AddRow({s.time.ToClockString(), std::to_string(s.active_vms),
                  std::to_string(s.powered_hosts), std::to_string(s.powered_home_hosts),
                  std::to_string(s.powered_consolidation_hosts),
                  std::to_string(s.partial_vms)});
  }
  table.Print(std::cout);

  int peak_active = 0;
  size_t peak_i = 0;
  int min_powered = INT32_MAX;
  // Ignore the first hour while the initial placement settles.
  for (size_t i = 12; i < timeline.size(); ++i) {
    if (timeline[i].active_vms > peak_active) {
      peak_active = timeline[i].active_vms;
      peak_i = i;
    }
    min_powered = std::min(min_powered, timeline[i].powered_hosts);
  }
  std::printf("peak: %d active VMs (%.0f%%) at %s; minimum powered hosts: %d\n", peak_active,
              100.0 * peak_active / config.cluster.TotalVms(),
              timeline[peak_i].time.ToClockString().c_str(), min_powered);
}

}  // namespace
}  // namespace oasis

int main() {
  oasis::check::RunScope run_scope;
  using namespace oasis;
  PrintExperimentHeader(std::cout,
                        "Figure 7 - Active VMs and powered hosts over a simulation day",
                        "30 home + 4 consolidation hosts, 900 VMs, FulltoPartial policy "
                        "(paper: weekday peak 411 active VMs at ~14:00, trough ~06:30).");
  // Both day panels are independent runs: plan them together and let the
  // experiment runner execute them on OASIS_JOBS workers, then print in
  // plan order (identical output at any job count).
  exp::ExperimentPlan plan;
  const DayKind days[] = {DayKind::kWeekday, DayKind::kWeekend};
  std::vector<SimulationConfig> configs;
  for (DayKind day : days) {
    configs.push_back(PaperCluster(ConsolidationPolicy::kFullToPartial, 4, day));
    plan.Add(configs.back());
  }
  std::vector<SimulationResult> results = exp::RunParallel(plan);
  for (size_t i = 0; i < configs.size(); ++i) {
    PrintDay(days[i], configs[i], results[i]);
  }
  return 0;
}
