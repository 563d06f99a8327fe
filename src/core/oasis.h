// Oasis public API.
//
// This is the façade a downstream user programs against:
//
//   #include "src/core/oasis.h"
//
//   oasis::SimulationConfig config;                       // 30+4 VDI rack
//   config.cluster.policy = oasis::ConsolidationPolicy::kFullToPartial;
//   oasis::ClusterSimulation simulation(config);
//   oasis::SimulationResult result = simulation.Run();
//   std::cout << result.metrics.EnergySavings();
//
// It wires the trace generator (or a caller-provided trace) into the
// cluster manager. Batches of runs (repetitions, sweeps) go through
// src/exp, which also aggregates repeated runs.

#ifndef OASIS_SRC_CORE_OASIS_H_
#define OASIS_SRC_CORE_OASIS_H_

#include <optional>
#include <vector>

#include "src/cluster/cluster_types.h"
#include "src/cluster/manager.h"
#include "src/cluster/metrics.h"
#include "src/common/stats.h"
#include "src/trace/activity_trace.h"
#include "src/trace/trace_generator.h"

namespace oasis {

struct SimulationConfig {
  // cluster.fault opts into deterministic failure injection (host crashes,
  // WoL loss, resume hangs, memory-server deaths, migration aborts — see
  // DESIGN.md § Failure model). Disabled by default; a disabled config
  // consumes no random draws, so results match builds without the subsystem.
  ClusterConfig cluster;
  DayKind day = DayKind::kWeekday;
  TraceGeneratorConfig trace;
  // When set, this trace drives the run instead of the generator.
  std::optional<TraceSet> fixed_trace;
  // Drives the trace generator, the cluster's RNG streams, and the fault
  // schedule; every bench/example main lets OASIS_SEED override it
  // (obs::ApplySeedOverride).
  uint64_t seed = 42;
};

struct SimulationResult {
  ClusterMetrics metrics;
  // The trace that drove the run (useful for baselines and plotting).
  TraceSet trace;
};

class ClusterSimulation {
 public:
  // The run records into the collectors its thread resolves: the
  // run-local obs::RunContext the batch runner (src/exp) installs while a
  // global collector is on, else the process globals.
  explicit ClusterSimulation(const SimulationConfig& config);

  // Simulates one day.
  SimulationResult Run();

  const SimulationConfig& config() const { return config_; }

 private:
  SimulationConfig config_;
};

// Aggregate of N independent runs (fresh trace sample + seed per run), the
// way §5 reports each datapoint as the average of five runs; built by
// exp::CollectRepeated / exp::RunRepeated.
struct RepeatedRunResult {
  OnlineStats savings;            // energy-savings fraction per run
  OnlineStats total_energy_kwh;
  OnlineStats baseline_energy_kwh;
  std::vector<SimulationResult> runs;
};

}  // namespace oasis

#endif  // OASIS_SRC_CORE_OASIS_H_
