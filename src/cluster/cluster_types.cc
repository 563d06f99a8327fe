#include "src/cluster/cluster_types.h"

#include <cassert>

#include "src/cluster/strategy.h"
#include "src/mem/working_set.h"

namespace oasis {

const char* ConsolidationPolicyName(ConsolidationPolicy p) {
  switch (p) {
    case ConsolidationPolicy::kOnlyPartial:
      return "OnlyPartial";
    case ConsolidationPolicy::kDefault:
      return "Default";
    case ConsolidationPolicy::kFullToPartial:
      return "FulltoPartial";
    case ConsolidationPolicy::kNewHome:
      return "NewHome";
  }
  return "?";
}

Status ClusterConfig::Validate() const {
  if (num_home_hosts <= 0 || num_consolidation_hosts < 0 || vms_per_home <= 0) {
    return Status::InvalidArgument("host/VM counts must be positive");
  }
  if (vm_memory_bytes == 0 || host_memory_bytes == 0) {
    return Status::InvalidArgument("memory sizes must be positive");
  }
  if (static_cast<uint64_t>(vms_per_home) * vm_memory_bytes > host_memory_bytes) {
    return Status::InvalidArgument(
        "home hosts cannot fit their own VMs: " + std::to_string(vms_per_home) + " x " +
        FormatBytes(vm_memory_bytes) + " > " + FormatBytes(host_memory_bytes) +
        " (use SetVmsPerHome to scale host capacity)");
  }
  Status working_set_ok = ValidateWorkingSet(WorkingSetDistribution{}, vm_memory_bytes);
  if (!working_set_ok.ok()) {
    return working_set_ok;
  }
  if (planning_interval <= SimTime::Zero()) {
    return Status::InvalidArgument("planning interval must be positive");
  }
  if (memory_overcommit < 1.0 || memory_overcommit > 3.0) {
    return Status::InvalidArgument("memory_overcommit must be in [1, 3]");
  }
  if (idle_smoothing_intervals < 0) {
    return Status::InvalidArgument("idle smoothing must be non-negative");
  }
  if (!IsRegisteredStrategyName(strategy_name)) {
    return Status::InvalidArgument("unknown consolidation strategy '" + strategy_name +
                                   "' (registered: " + RegisteredStrategyNamesJoined() +
                                   ")");
  }
  if (fault.enabled) {
    Status fault_ok = fault.Validate();
    if (!fault_ok.ok()) {
      return fault_ok;
    }
  }
  if (!fleet.empty()) {
    Status fleet_ok = fleet.Validate();
    if (!fleet_ok.ok()) {
      return fleet_ok;
    }
    if (fleet.CoveredHosts() > TotalHosts()) {
      return Status::InvalidArgument(
          "fleet mix covers " + std::to_string(fleet.CoveredHosts()) +
          " hosts but the cluster has " + std::to_string(TotalHosts()));
    }
    // Every generation assigned to a home range must still fit that home's
    // own VM population (the class-0 check above, per capacity_scale).
    for (size_t s = 0, first = 0; s < fleet.segments.size(); ++s) {
      const FleetSegment& segment = fleet.segments[s];
      if (static_cast<int>(first) < num_home_hosts) {
        const HostProfile profile = ResolvedProfile(static_cast<int>(s) + 1);
        const uint64_t capacity = static_cast<uint64_t>(
            static_cast<double>(host_memory_bytes) * profile.capacity_scale);
        if (static_cast<uint64_t>(vms_per_home) * vm_memory_bytes > capacity) {
          return Status::InvalidArgument(
              "home hosts of generation '" + segment.generation +
              "' cannot fit their own VMs: " + std::to_string(vms_per_home) +
              " x " + FormatBytes(vm_memory_bytes) + " > " +
              FormatBytes(capacity));
        }
      }
      first += static_cast<size_t>(segment.count);
    }
  }
  return Status::Ok();
}

int ClusterConfig::ProfileClassOf(HostId id) const {
  int first = 0;
  for (size_t s = 0; s < fleet.segments.size(); ++s) {
    first += fleet.segments[s].count;
    if (id < static_cast<HostId>(first)) {
      return static_cast<int>(s) + 1;
    }
  }
  return 0;
}

HostProfile ClusterConfig::ResolvedProfile(int profile_class) const {
  if (profile_class <= 0 ||
      profile_class > static_cast<int>(fleet.segments.size())) {
    HostProfile profile;
    profile.power = host_power;
    return profile;
  }
  const HostProfile* found =
      FindHostGeneration(fleet.segments[profile_class - 1].generation);
  if (found == nullptr) {  // Validate() rejects this; stay total anyway.
    HostProfile profile;
    profile.power = host_power;
    return profile;
  }
  HostProfile profile = *found;
  if (fleet_power_scale != 1.0) {
    profile.power = profile.power.Scaled(fleet_power_scale);
  }
  return profile;
}

void ClusterConfig::SetVmsPerHome(int vms) {
  double scale = static_cast<double>(vms) / 30.0;
  vms_per_home = vms;
  host_memory_bytes = static_cast<uint64_t>(128.0 * scale * kGiB);
  // Bigger servers (more DIMMs, more sockets) draw capacity-proportional
  // power in every state; the memory server board stays the same. Catalog
  // generations resolve through fleet_power_scale so a resized cluster
  // rescales its whole fleet coherently.
  host_power = host_power.Scaled(scale);
  fleet_power_scale *= scale;
}

UpkeepRates::UpkeepRates(const ClusterConfig& config)
    : dirty_step(MiBToBytes(config.volumes.dirty_mib_per_minute *
                            config.planning_interval.minutes())),
      dirty_cap(config.volumes.dirty_cap_bytes),
      fetch_fraction(config.volumes.on_demand_fraction_per_interval),
      fetch_cap(config.volumes.on_demand_cap_per_interval) {
  uint64_t bytes = MiBToBytes(config.volumes.ws_growth_mib_per_hour *
                              config.planning_interval.hours());
  growth = (bytes / kPageSize) * kPageSize;
  // Fetch is monotone in the unfetched size (a product with a non-negative
  // constant, truncated), so the threshold is a binary search on the very
  // expression each round evaluates. Working sets stay far below 2^62.
  constexpr uint64_t kLimit = uint64_t{1} << 62;
  if (fetch_cap > 0 && Fetch(kLimit) == fetch_cap) {
    uint64_t lo = 0;
    uint64_t hi = kLimit;
    while (lo < hi) {
      uint64_t mid = lo + (hi - lo) / 2;
      if (Fetch(mid) == fetch_cap) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    cap_threshold = hi;
  }
  // A fetch never exceeds what remains, so every entry builds on a smaller
  // one; each walk takes at most x rounds, which fits a uint16_t.
  tail.resize(kTailSizes);
  for (uint64_t x = 0; x < kTailSizes; ++x) {
    uint64_t fetch = Fetch(x);
    assert(fetch <= x && "the on-demand fraction must be in [0, 1]");
    tail[x] = fetch == 0 ? Tail{0, static_cast<uint16_t>(x)}
                         : Tail{static_cast<uint16_t>(tail[x - fetch].rounds + 1),
                                tail[x - fetch].rest};
  }
}

UpkeepCounters UpkeepRates::Advance(const VmSlot& vm, uint64_t rounds, uint64_t grown) const {
  UpkeepCounters c;
  c.ws_bytes = vm.ws_bytes + grown * growth;
  c.dirty_bytes = rounds > 0 ? std::min(vm.dirty_bytes + rounds * dirty_step, dirty_cap)
                             : vm.dirty_bytes;
  uint64_t x = vm.ws_unfetched;
  // Cap phase: while x >= cap_threshold every round fetches the whole cap.
  if (cap_threshold != kNoCapPhase && x >= cap_threshold) {
    uint64_t n = std::min(rounds, (x - cap_threshold) / fetch_cap + 1);
    x -= n * fetch_cap;
    c.fetches += n;
    rounds -= n;
  }
  // Geometric phase: the exact per-round recurrence, until the fetch rounds
  // down to nothing, the rounds run out, or x is small enough that the
  // memoized tail finishes the walk.
  for (; rounds > 0; --rounds) {
    if (x < tail.size() && tail[x].rounds <= rounds) {
      c.fetches += tail[x].rounds;
      x = tail[x].rest;
      break;
    }
    uint64_t fetch = Fetch(x);
    if (fetch == 0) {
      break;
    }
    x -= fetch;
    ++c.fetches;
  }
  c.ws_unfetched = x;
  c.fetched_bytes = vm.ws_unfetched - x;
  return c;
}

}  // namespace oasis
