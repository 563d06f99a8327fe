#include "src/dc/runner.h"

#include <string>

namespace oasis {
namespace dc {

DatacenterRun ShardRunner::Run(const DatacenterTopology& topology) const {
  const std::vector<RackSpec>& racks = topology.racks();
  DatacenterRun run;
  run.config = topology.config();
  run.racks.resize(racks.size());
  exp::RunOrdered(
      racks.size(), jobs_,
      [&racks, &run](size_t i, obs::RunContext* context) {
        const RackSpec& spec = racks[i];
        RackResult& out = run.racks[i];
        out.rack = spec.rack;
        out.pod = spec.pod;
        out.seed = spec.sim.seed;
        out.metrics = ClusterSimulation(spec.sim, context).Run().metrics;
      },
      [&racks](size_t i) { return "dc.rack" + std::to_string(racks[i].rack) + "."; });
  return run;
}

}  // namespace dc
}  // namespace oasis
