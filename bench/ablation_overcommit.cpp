// Ablation: memory over-commitment (§3 assumption 1) and memory-server
// page deduplication.
//
// The paper's capacity analysis assumes consolidation is memory-bound with
// at most ~1.5x over-commit from ballooning/de-duplication. This harness
// quantifies (a) how much cluster-level savings an over-commit factor adds,
// and (b) the raw dedup factor a memory server sees across co-uploaded VM
// images (zero pages dominate).

#include <cstdio>
#include <iostream>

#include "bench/bench_util.h"
#include "src/common/table.h"
#include "src/exp/exp.h"
#include "src/mem/dedup.h"
#include "src/check/run_scope.h"

namespace oasis {
namespace {

void ClusterOvercommitSweep(int runs) {
  std::printf("\nCluster savings vs over-commit factor (FulltoPartial, 30+4, weekday):\n");
  const double factors[] = {1.0, 1.25, 1.5};
  exp::ExperimentPlan plan;
  std::vector<exp::RepetitionSpan> spans;
  for (double factor : factors) {
    SimulationConfig config =
        PaperCluster(ConsolidationPolicy::kFullToPartial, 4, DayKind::kWeekday);
    config.cluster.memory_overcommit = factor;
    spans.push_back(plan.AddRepetitions(config, runs));
  }
  std::vector<SimulationResult> results = exp::RunParallel(plan);

  TextTable table({"over-commit", "weekday savings", "median VMs/consolidation host"});
  size_t datapoint = 0;
  for (double factor : factors) {
    RepeatedRunResult result = exp::CollectRepeated(results, spans[datapoint++]);
    double median_ratio = 0.0;
    if (!result.runs.empty() && !result.runs[0].metrics.consolidation_ratio.empty()) {
      median_ratio = result.runs[0].metrics.consolidation_ratio.Quantile(0.5);
    }
    table.AddRow({TextTable::Num(factor, 2), TextTable::Pct(result.savings.mean()),
                  TextTable::Num(median_ratio, 0)});
  }
  table.Print(std::cout);
}

void MemoryServerDedup() {
  std::printf("\nMemory-server page dedup across co-uploaded VM images:\n");
  TextTable table({"VMs uploaded", "logical", "stored", "dedup factor"});
  DedupPageStore store;
  for (int vms = 1; vms <= 16; vms *= 2) {
    // Each VM contributes a sample of its touched pages.
    for (uint64_t seed = (vms == 1 ? 0u : static_cast<uint64_t>(vms) / 2);
         seed < static_cast<uint64_t>(vms); ++seed) {
      PageContentGenerator gen(seed + 1000);
      for (uint64_t page = 0; page < 512; ++page) {
        store.Insert(gen.Generate(page));
      }
    }
    table.AddRow({std::to_string(vms), FormatBytes(store.LogicalBytes()),
                  FormatBytes(store.StoredBytes()),
                  TextTable::Num(store.DedupFactor(), 2) + "x"});
  }
  table.Print(std::cout);
  std::printf("All zero pages — inside one image and across every co-located image —\n"
              "collapse to a single stored copy; ballooning reclaims the rest of the\n"
              "headroom behind the 1.5x over-commit assumption.\n");
}

}  // namespace
}  // namespace oasis

int main() {
  oasis::check::RunScope run_scope;
  using namespace oasis;
  int runs = std::max(1, BenchRuns() - 2);
  PrintExperimentHeader(std::cout, "Ablation - memory over-commitment and dedup",
                        "Section 3 assumption 1: ballooning/de-duplication allow ~1.5x "
                        "memory over-commit; consolidation is memory-bound.");
  ClusterOvercommitSweep(runs);
  MemoryServerDedup();
  return 0;
}
