// Ablation: pluggable consolidation strategies (control-plane policy layer).
//
// Runs the paper's standard rack for one weekday under every registered
// ConsolidationStrategy and compares the headline outcomes side by side:
// how much of the greedy §3 algorithm's savings a static bin-packer, a
// purely local per-host rule, or the forecast-driven predictive planner can
// recover, and what each one pays in migrations and network traffic. Every
// strategy is additionally measured against the offline oracle
// (src/cluster/oracle.h): "gap vs oracle" is how much more energy the
// online strategy burned than the best whole-day schedule the oracle found
// on the same completed day. Run with OASIS_CHECK=strict to assert that
// every strategy keeps the cluster invariants intact.
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
#include "src/check/check.h"
#include "src/cluster/oracle.h"
#include "src/cluster/strategy.h"
#include "src/common/table.h"
#include "src/exp/exp.h"
#include "src/obs/obs.h"

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

uint64_t CombineDigests(const std::vector<OracleResult>& oracle) {
  uint64_t hash = 1469598103934665603ULL;
  for (const OracleResult& r : oracle) {
    uint64_t d = r.Digest();
    for (int b = 0; b < 8; ++b) {
      hash ^= (d >> (b * 8)) & 0xFFu;
      hash *= 1099511628211ULL;
    }
  }
  return hash;
}

// Splices the gap results into the OASIS_BENCH_JSON snapshot as a
// "policy_gaps" member, replacing any previous splice. perf_sweep owns the
// file and writes it whole; this bench only appends one member before the
// closing brace (or creates a minimal object if run standalone).
void SpliceBenchJson(const std::vector<std::string>& names,
                     const std::vector<double>& gaps, double oracle_savings,
                     uint64_t digest) {
  const std::string path = knobs::String(knobs::Knob::kBenchJson);
  if (path.empty()) {
    return;
  }
  std::string content;
  {
    std::ifstream in(path);
    if (in) {
      content.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
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
  exp::ExperimentPlan plan;
  std::vector<exp::RepetitionSpan> spans;
  uint64_t base_seed = 0;
  ClusterConfig oracle_cluster;
  for (const std::string& name : names) {
    SimulationConfig config =
        PaperCluster(ConsolidationPolicy::kFullToPartial, 4, DayKind::kWeekday);
    // Per-row assignment after PaperCluster so it wins over OASIS_POLICY.
    config.cluster.strategy_name = name;
    base_seed = config.seed;
    oracle_cluster = config.cluster;
    spans.push_back(plan.AddRepetitions(config, runs));
  }
  std::vector<SimulationResult> results = exp::RunParallel(plan);

  // One oracle solve per repetition. Repetition r's day is identical across
  // strategy rows (same derived seed, same trace), so row 0's traces stand
  // in for everyone and each row's rep-r energy compares against the same
  // bound. Solved before CollectRepeated, which moves the results away.
  OfflineOracle solver(oracle_cluster);
  std::vector<OracleResult> oracle;
  oracle.reserve(static_cast<size_t>(runs));
  for (int r = 0; r < runs; ++r) {
    const SimulationResult& rep = results[spans[0].first + static_cast<size_t>(r)];
    oracle.push_back(solver.Solve(rep.trace, exp::ExperimentPlan::DeriveSeed(base_seed, r)));
  }
  std::vector<double> mean_gap(names.size(), 0.0);
  for (size_t row = 0; row < names.size(); ++row) {
    for (int r = 0; r < runs; ++r) {
      const ClusterMetrics& m =
          results[spans[row].first + static_cast<size_t>(r)].metrics;
      mean_gap[row] +=
          OptimalityGap(m.TotalEnergy(), oracle[static_cast<size_t>(r)]);
    }
    mean_gap[row] /= static_cast<double>(runs);
  }
  double oracle_savings = 0.0;
  double relaxed_savings = 0.0;
  for (const OracleResult& r : oracle) {
    oracle_savings += r.ScheduleSavings();
    relaxed_savings += 1.0 - r.relaxed_lower_bound / r.baseline_energy;
  }
  oracle_savings /= static_cast<double>(runs);
  relaxed_savings /= static_cast<double>(runs);
  uint64_t digest = CombineDigests(oracle);

  TextTable table({"strategy", "savings", "gap vs oracle", "partial migs", "full migs",
                   "host sleeps", "delay p50 (s)", "network traffic"});
  for (size_t row = 0; row < names.size(); ++row) {
    RepeatedRunResult result = exp::CollectRepeated(results, spans[row]);
    const ClusterMetrics& m = result.runs[0].metrics;
    double p50 = m.transition_delay_s.empty() ? 0.0 : m.transition_delay_s.Quantile(0.5);
    table.AddRow({names[row], TextTable::Pct(result.savings.mean()),
                  TextTable::Pct(mean_gap[row]), std::to_string(m.partial_migrations),
                  std::to_string(m.full_migrations), std::to_string(m.host_sleeps),
                  TextTable::Num(p50, 2), FormatBytes(NetworkTraffic(m))});
  }
  table.Print(std::cout);
  std::printf("\noracle: hindsight schedule saves %.1f%% (relaxed interval bound %.1f%%), "
              "digest 0x%016" PRIx64 "\n",
              oracle_savings * 100.0, relaxed_savings * 100.0, digest);
  std::printf(
      "\noasis-greedy is the paper's §3 planner (and the byte-identical default);\n"
      "first-fit-decreasing drops its incremental draining and power-aware host\n"
      "choice for one static packing pass; local-threshold drops the global view\n"
      "entirely and lets each home park its VMs on a fixed consolidation host;\n"
      "predictive adds a diurnal forecast to oasis-greedy, pre-draining into the\n"
      "trough and pre-waking ahead of the peak. \"gap vs oracle\" is each online\n"
      "strategy's extra energy over the offline oracle's whole-day schedule on\n"
      "the same completed day (0%% = matched perfect hindsight).\n");
  SpliceBenchJson(names, mean_gap, oracle_savings, digest);
}

}  // namespace
}  // namespace oasis

int main() {
  // Invariant checking per OASIS_CHECK (off | warn | strict); declared
  // before ObsScope so traces flush before any strict exit.
  oasis::check::CheckScope check_scope;
  oasis::obs::ObsScope obs_scope;
  using namespace oasis;
  PrintExperimentHeader(std::cout, "Ablation - consolidation strategy",
                        "The pluggable policy layer: the paper's greedy planner vs "
                        "first-fit-decreasing packing vs purely local thresholds vs "
                        "the predictive forecaster on the standard 30+4 weekday "
                        "rack, each measured against the offline oracle bound.");
  PolicySweep(std::max(1, BenchRuns() - 2));
  return 0;
}
