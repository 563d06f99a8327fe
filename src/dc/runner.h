// ShardRunner: execute every rack of a DatacenterTopology as one task of
// exp::RunOrdered, each rack's metrics merged into the process-global
// registry under its own namespace ("dc.rack<i>."), so a merged registry
// still tells racks apart. Like every RunOrdered batch, the namespacing and
// the topology-order merge happen at every job count, so OASIS_METRICS
// exports are byte-identical across OASIS_JOBS.
//
// Each task reduces its rack to a RackResult on the worker and drops the
// rack's TraceSet there, so a datacenter day never holds every rack's
// trace at once.
//
// Determinism contract: rack simulations share no state, contexts merge in
// topology order, and ClusterMetrics are folded nowhere here — so the
// DatacenterRun (and everything computed from it: ledger, coordinator,
// digests) is bit-identical at any OASIS_JOBS and any execution order.

#ifndef OASIS_SRC_DC_RUNNER_H_
#define OASIS_SRC_DC_RUNNER_H_

#include <cstdint>
#include <vector>

#include "src/cluster/metrics.h"
#include "src/dc/topology.h"
#include "src/exp/exp.h"

namespace oasis {
namespace dc {

// One simulated rack-day, with its place in the hierarchy.
struct RackResult {
  int rack = 0;
  int pod = 0;
  uint64_t seed = 0;  // the SplitMix64-derived seed the shard ran with
  ClusterMetrics metrics;
};

// Every rack's result, in topology order (ascending rack index). The
// coordinator and ledger both take this as their sole input.
struct DatacenterRun {
  DatacenterConfig config;
  std::vector<RackResult> racks;
};

class ShardRunner {
 public:
  explicit ShardRunner(int jobs) : jobs_(jobs) {}
  ShardRunner() : ShardRunner(exp::JobsFromEnv()) {}

  // Simulates every rack and returns the results in topology order.
  DatacenterRun Run(const DatacenterTopology& topology) const;

  int jobs() const { return jobs_; }

 private:
  int jobs_ = 1;
};

}  // namespace dc
}  // namespace oasis

#endif  // OASIS_SRC_DC_RUNNER_H_
