#include "src/core/oasis.h"

namespace oasis {

ClusterSimulation::ClusterSimulation(const SimulationConfig& config,
                                     obs::RunContext* run_context)
    : config_(config), run_context_(run_context) {}

SimulationResult ClusterSimulation::Run() {
  SimulationResult result;
  if (config_.fixed_trace.has_value()) {
    result.trace = *config_.fixed_trace;
  } else {
    TraceGenerator generator(config_.trace, config_.seed ^ 0x7ACEBA5Eull);
    result.trace = generator.GenerateTraceSet(config_.cluster.TotalVms(), config_.day);
  }
  ClusterConfig cluster = config_.cluster;
  cluster.seed = config_.seed;
  ClusterManager manager(cluster, result.trace, run_context_);
  result.metrics = manager.Run();
  return result;
}

}  // namespace oasis
