#include "src/dc/topology.h"

#include <optional>

#include "src/common/knobs.h"
#include "src/power/host_profile.h"

namespace oasis {
namespace dc {

Status DatacenterConfig::Validate() const {
  if (total_racks <= 0) {
    return Status::InvalidArgument("total_racks must be positive");
  }
  if (racks_per_pod <= 0) {
    return Status::InvalidArgument("racks_per_pod must be positive");
  }
  if (rack.home_hosts <= 0 || rack.consolidation_hosts <= 0) {
    return Status::InvalidArgument("every rack needs home and consolidation hosts");
  }
  if (rack.vms_per_home <= 0) {
    return Status::InvalidArgument("rack.vms_per_home must be positive");
  }
  if (!IsRegisteredStrategyName(rack.strategy_name)) {
    return Status::InvalidArgument("rack.strategy_name '" + rack.strategy_name +
                                   "' names no registered strategy (registered: " +
                                   RegisteredStrategyNamesJoined() + ")");
  }
  for (const std::string& generation : pod_generations) {
    if (FindHostGeneration(generation) == nullptr) {
      return Status::InvalidArgument("pod_generations names unknown host generation '" +
                                     generation + "' (catalog: " +
                                     HostGenerationNames() + ")");
    }
  }
  return coordinator.Validate();
}

uint64_t DatacenterTopology::RackSeed(uint64_t base, int rack) {
  // SplitMix64 finalizer over base + rack * golden-gamma: the same mixer the
  // Rng seeding path uses, so adjacent rack indices yield decorrelated
  // simulation streams. Depends only on (base, rack) — never on the rack
  // count — which is what keeps small OASIS_DC_RACKS grids prefixes of the
  // full datacenter.
  uint64_t z = base + 0x9E3779B97F4A7C15ull * (static_cast<uint64_t>(rack) + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

StatusOr<DatacenterTopology> DatacenterTopology::Build(const DatacenterConfig& config) {
  Status status = config.Validate();
  if (!status.ok()) {
    return status;
  }

  // The shared per-rack cluster shape, built once and stamped per rack with
  // its own seed. SetVmsPerHome scales host memory (and power,
  // capacity-proportionally) so dense racks stay representable.
  SimulationConfig shape;
  shape.cluster.num_home_hosts = config.rack.home_hosts;
  shape.cluster.num_consolidation_hosts = config.rack.consolidation_hosts;
  shape.cluster.SetVmsPerHome(config.rack.vms_per_home);
  shape.cluster.policy = config.rack.policy;
  shape.cluster.strategy_name = config.rack.strategy_name;
  shape.cluster.fault = config.rack.fault;
  shape.day = config.rack.day;
  status = shape.cluster.Validate();
  if (!status.ok()) {
    return status;
  }

  DatacenterTopology topology;
  topology.config_ = config;
  topology.racks_.reserve(static_cast<size_t>(config.total_racks));
  for (int r = 0; r < config.total_racks; ++r) {
    RackSpec spec;
    spec.rack = r;
    spec.pod = r / config.racks_per_pod;
    spec.sim = shape;
    spec.sim.seed = RackSeed(config.seed, r);
    // Per-pod hardware: the whole rack is one fleet segment of the pod's
    // generation. Depends only on (r, racks_per_pod, pod_generations), so
    // the rack-prefix property holds for hardware exactly as for seeds.
    if (!config.pod_generations.empty()) {
      const std::string& generation =
          config.pod_generations[static_cast<size_t>(spec.pod) %
                                 config.pod_generations.size()];
      spec.sim.cluster.fleet.segments = {
          {generation, config.rack.hosts()}};
      Status rack_valid = spec.sim.cluster.Validate();
      if (!rack_valid.ok()) {
        return rack_valid;
      }
    }
    topology.racks_.push_back(std::move(spec));
  }
  return topology;
}

void ApplyDatacenterEnvOverrides(DatacenterConfig* config) {
  if (std::optional<uint64_t> racks = knobs::Int(knobs::Knob::kDcRacks)) {
    config->total_racks = static_cast<int>(*racks);
  }
}

}  // namespace dc
}  // namespace oasis
