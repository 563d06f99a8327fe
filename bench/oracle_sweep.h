// The strategy-vs-oracle sweep that bench/ablation_policy and
// bench/heterogeneous_fleet share: every row runs the same repetitions, one
// offline oracle solve per repetition is the common reference, and each
// row's "gap vs oracle" is measured against it.

#ifndef OASIS_BENCH_ORACLE_SWEEP_H_
#define OASIS_BENCH_ORACLE_SWEEP_H_

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "src/cluster/oracle.h"
#include "src/common/digest.h"
#include "src/core/oasis.h"
#include "src/exp/exp.h"

namespace oasis {

struct OracleSweep {
  // Every row's repetitions in plan order; spans[row] indexes a row's group.
  std::vector<SimulationResult> results;
  std::vector<exp::RepetitionSpan> spans;
  // Per row, the mean over repetitions of OptimalityGap against that
  // repetition's oracle.
  std::vector<double> mean_gap;
  // Means over repetitions of the oracle schedule's savings and of the
  // per-interval relaxation's.
  double schedule_savings = 0.0;
  double relaxed_savings = 0.0;
  // Folds the oracle results only, so no strategy row can move it.
  uint64_t digest = 0;

  void PrintOracleLine() const {
    std::printf("\noracle: hindsight schedule saves %.1f%% (relaxed interval bound %.1f%%), "
                "digest 0x%016" PRIx64 "\n",
                schedule_savings * 100.0, relaxed_savings * 100.0, digest);
  }
};

// Runs `runs` repetitions of every row, then solves the oracle once per
// repetition. The rows must differ only in their strategy: repetition r's
// day is then identical across rows (same derived seed, same trace), so row
// 0's traces stand in for everyone and each row's rep-r energy compares
// against the same bound.
inline OracleSweep RunOracleSweep(const std::vector<SimulationConfig>& rows, int runs) {
  OracleSweep sweep;
  exp::ExperimentPlan plan;
  for (const SimulationConfig& config : rows) {
    sweep.spans.push_back(plan.AddRepetitions(config, runs));
  }
  sweep.results = exp::RunParallel(plan);

  OfflineOracle solver(rows[0].cluster);
  std::vector<OracleResult> oracle;
  oracle.reserve(static_cast<size_t>(runs));
  for (int r = 0; r < runs; ++r) {
    const SimulationResult& rep = sweep.results[sweep.spans[0].first + static_cast<size_t>(r)];
    oracle.push_back(solver.Solve(rep.trace, exp::ExperimentPlan::DeriveSeed(rows[0].seed, r)));
  }
  sweep.mean_gap.assign(rows.size(), 0.0);
  for (size_t row = 0; row < rows.size(); ++row) {
    for (int r = 0; r < runs; ++r) {
      const ClusterMetrics& m =
          sweep.results[sweep.spans[row].first + static_cast<size_t>(r)].metrics;
      sweep.mean_gap[row] += OptimalityGap(m.TotalEnergy(), oracle[static_cast<size_t>(r)]);
    }
    sweep.mean_gap[row] /= static_cast<double>(runs);
  }
  Fnv1a digest(Fnv1a::kShortBasis);
  for (const OracleResult& r : oracle) {
    sweep.schedule_savings += r.ScheduleSavings();
    sweep.relaxed_savings += 1.0 - r.relaxed_lower_bound / r.baseline_energy;
    digest.Fold(r.Digest());
  }
  sweep.schedule_savings /= static_cast<double>(runs);
  sweep.relaxed_savings /= static_cast<double>(runs);
  sweep.digest = digest.hash();
  return sweep;
}

}  // namespace oasis

#endif  // OASIS_BENCH_ORACLE_SWEEP_H_
