// Ablation: pluggable consolidation strategies (control-plane policy layer).
//
// Runs the paper's standard rack for one weekday under every registered
// ConsolidationStrategy and compares the headline outcomes side by side:
// how much of the greedy §3 algorithm's savings a static bin-packer or a
// purely local per-host rule can recover, and what each one pays in
// migrations and network traffic. Every strategy is additionally measured
// against the offline oracle (src/cluster/oracle.h): "gap vs oracle" is how
// much more energy the online strategy burned than the best whole-day
// schedule the oracle found on the same completed day. Run with
// OASIS_CHECK=strict to assert that every strategy keeps the cluster
// invariants intact.
//
// When OASIS_BENCH_JSON is set, the per-strategy gaps are spliced into that
// snapshot as a "policy_gaps" member (tools/update_bench.sh runs this bench
// after perf_sweep so BENCH_sweep.json carries both).

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/oracle_sweep.h"
#include "src/check/run_scope.h"
#include "src/cluster/strategy.h"
#include "src/common/table.h"
#include "src/exp/exp.h"

namespace oasis {
namespace {

uint64_t NetworkTraffic(const ClusterMetrics& m) {
  // Everything that crosses the rack network; memory uploads ride the
  // shared SAS drive and are accounted separately.
  return m.traffic.Total(TrafficCategory::kFullMigration) +
         m.traffic.Total(TrafficCategory::kPartialDescriptor) +
         m.traffic.Total(TrafficCategory::kOnDemandPages) +
         m.traffic.Total(TrafficCategory::kReintegration);
}

// Splices the gap results into the OASIS_BENCH_JSON snapshot as a
// "policy_gaps" member, replacing any previous splice. perf_sweep owns the
// file and writes it whole; this bench only appends one member before the
// closing brace (or creates a minimal object if run standalone).
void SpliceBenchJson(const std::vector<std::string>& names, const std::vector<double>& gaps,
                     double oracle_savings, uint64_t digest) {
  const std::string path = knobs::String(knobs::Knob::kBenchJson);
  if (path.empty()) {
    return;
  }
  std::string content;
  {
    std::ifstream in(path);
    if (in) {
      content.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
    }
  }
  size_t previous = content.find(",\n  \"policy_gaps\":");
  if (previous != std::string::npos) {
    content = content.substr(0, previous) + "\n}\n";
  }
  std::ostringstream member;
  member << ",\n  \"policy_gaps\": {\n";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", oracle_savings);
  member << "    \"oracle_savings\": " << buf << ",\n";
  std::snprintf(buf, sizeof(buf), "\"0x%016" PRIx64 "\"", digest);
  member << "    \"oracle_digest\": " << buf << ",\n";
  member << "    \"gaps\": {";
  for (size_t i = 0; i < names.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.6f", gaps[i]);
    member << (i == 0 ? "" : ",") << "\n      \"" << names[i] << "\": " << buf;
  }
  member << "\n    }\n  }";

  size_t brace = content.rfind('}');
  if (brace == std::string::npos) {
    content = std::string("{\n  \"bench\": \"ablation_policy\"") + member.str() + "\n}\n";
  } else {
    size_t end = content.find_last_not_of(" \t\n", brace - 1);
    content = content.substr(0, end + 1) + member.str() + "\n}\n";
  }
  std::ofstream out(path);
  out << content;
}

void PolicySweep(int runs) {
  const std::vector<std::string>& names = RegisteredStrategyNames();
  std::vector<SimulationConfig> rows;
  for (const std::string& name : names) {
    SimulationConfig config =
        PaperCluster(ConsolidationPolicy::kFullToPartial, 4, DayKind::kWeekday);
    // Per-row assignment after PaperCluster so it wins over OASIS_POLICY.
    config.cluster.strategy_name = name;
    rows.push_back(config);
  }
  OracleSweep sweep = RunOracleSweep(rows, runs);

  TextTable table({"strategy", "savings", "gap vs oracle", "partial migs", "full migs",
                   "host sleeps", "delay p50 (s)", "network traffic"});
  for (size_t row = 0; row < names.size(); ++row) {
    RepeatedRunResult result = exp::CollectRepeated(sweep.results, sweep.spans[row]);
    const ClusterMetrics& m = result.runs[0].metrics;
    double p50 = m.transition_delay_s.empty() ? 0.0 : m.transition_delay_s.Quantile(0.5);
    table.AddRow({names[row], TextTable::Pct(result.savings.mean()),
                  TextTable::Pct(sweep.mean_gap[row]), std::to_string(m.partial_migrations),
                  std::to_string(m.full_migrations), std::to_string(m.host_sleeps),
                  TextTable::Num(p50, 2), FormatBytes(NetworkTraffic(m))});
  }
  table.Print(std::cout);
  sweep.PrintOracleLine();
  std::printf(
      "\noasis-greedy is the paper's §3 planner (and the byte-identical default);\n"
      "first-fit-decreasing drops its incremental draining and power-aware host\n"
      "choice for one static packing pass; local-threshold drops the global view\n"
      "entirely and lets each home park its VMs on a fixed consolidation host.\n"
      "\"gap vs oracle\" is each online strategy's extra energy over the offline\n"
      "oracle's whole-day schedule on the same completed day (0%% = matched\n"
      "perfect hindsight).\n");
  SpliceBenchJson(names, sweep.mean_gap, sweep.schedule_savings, sweep.digest);
}

}  // namespace
}  // namespace oasis

int main() {
  oasis::check::RunScope run_scope;
  using namespace oasis;
  PrintExperimentHeader(std::cout, "Ablation - consolidation strategy",
                        "The pluggable policy layer: the paper's greedy planner vs "
                        "first-fit-decreasing packing vs purely local thresholds on "
                        "the standard 30+4 weekday rack, each measured against the "
                        "offline oracle bound.");
  PolicySweep(std::max(1, BenchRuns() - 2));
  return 0;
}
