// Offline consolidation oracle — how well could *any* online strategy have
// done on a given day?
//
// The online strategies see only the past; the oracle is handed the
// completed day's activity timeline and searches whole-day sleep schedules
// (per home host, per 5-minute interval) under the same Table 1 power model
// and migration/transition costs the simulator charges. Its best schedule's
// energy is the reference bench/ablation_policy measures every strategy
// against: optimality_gap = strategy_energy / oracle_schedule_energy - 1.
//
// The model (deliberately a relaxation — the bound must err low, so a gap
// can never be negative for modeling reasons):
//
//   * A sleeping home's VMs live on the consolidation tier: idle VMs as
//     partials (their sampled working set), active VMs as fulls (their whole
//     allocation plus a CPU slot) — the paper's hybrid mechanism with
//     perfect foresight and no idleness-smoothing delay.
//   * Each interval needs c(t) powered consolidation hosts, the max of the
//     byte bound (parked bytes / effective host capacity) and the CPU bound
//     (parked actives / kMaxActiveVmsPerHost); a schedule is feasible only if
//     c(t) never exceeds the consolidation tier.
//   * Interval power: powered homes draw the loaded Table 1 rate, sleeping
//     homes S3 plus their memory server (when they park any idle VM),
//     powered consolidation hosts the idle rate plus the per-VM increment
//     (saturating at 20 residents each), everything else S3.
//   * Each sleep episode is charged its entry (migration-out time at loaded
//     power, capped at one interval, plus the S3 suspend transition) and its
//     exit (the S3 resume transition). On-demand fetches, reintegration
//     traffic, and mid-sleep reshuffling are not charged — relaxations, all
//     in the oracle's favor.
//
// Search: seeded simulated annealing over per-home sleep windows, started
// from the hindsight-greedy schedule (sleep every all-idle run). The whole
// solve is a pure function of (cluster config, trace, seed) — it touches no
// global stream and no wall clock — so it is deterministic across reruns
// and OASIS_JOBS settings by construction.

#ifndef OASIS_SRC_CLUSTER_ORACLE_H_
#define OASIS_SRC_CLUSTER_ORACLE_H_

#include <cstdint>

#include "src/cluster/cluster_types.h"
#include "src/trace/activity_trace.h"

namespace oasis {

struct OracleResult {
  // Per-interval relaxation (transition costs dropped, each interval
  // optimized independently): a floor under every schedule in the model.
  Joules relaxed_lower_bound = 0.0;
  // Energy of the best whole-day schedule the annealer found — the
  // denominator of every optimality gap.
  Joules schedule_energy = 0.0;
  // All home hosts powered all day: ClusterManager::BaselineEnergy, the
  // simulator's own baseline.
  Joules baseline_energy = 0.0;

  double ScheduleSavings() const {
    return baseline_energy > 0.0 ? 1.0 - schedule_energy / baseline_energy : 0.0;
  }
  // FNV-1a over the three energies' bit patterns — the determinism pin.
  uint64_t Digest() const;
};

class OfflineOracle {
 public:
  explicit OfflineOracle(const ClusterConfig& config);

  // Solves one completed day. `trace` drives VM activity exactly as
  // ClusterManager maps it (vm id modulo trace size); `seed` seeds the
  // working-set draws and the annealer.
  OracleResult Solve(const TraceSet& trace, uint64_t seed) const;

 private:
  ClusterConfig config_;
};

// strategy_energy / oracle schedule energy - 1 (0 = matched the oracle).
double OptimalityGap(Joules strategy_energy, const OracleResult& oracle);

}  // namespace oasis

#endif  // OASIS_SRC_CLUSTER_ORACLE_H_
