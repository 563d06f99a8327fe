#include "src/cluster/cluster_types.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <climits>
#include <cmath>
#include <cstdint>

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

namespace {

// A power curve the meters can integrate: finite, non-negative watts and
// non-negative S3 latencies (a negative one would schedule into the past),
// and a sleeping host drawing no more than an idle one. A finite draw is also
// what makes a zero-length meter segment add exactly 0 J
// (EnergyMeter::CloseSegment).
Status ValidatePowerProfile(const HostPowerProfile& power, const std::string& what) {
  for (Watts w : {power.idle_watts, power.watts_at_20_vms, power.sleep_watts,
                  power.suspend_watts, power.resume_watts}) {
    if (!(std::isfinite(w) && w >= 0.0)) {
      return Status::InvalidArgument(what + " watts must be finite and non-negative");
    }
  }
  if (power.suspend_latency < SimTime::Zero() || power.resume_latency < SimTime::Zero()) {
    return Status::InvalidArgument(what + " S3 latencies must be non-negative");
  }
  if (power.sleep_watts > power.idle_watts) {
    return Status::InvalidArgument(what + " sleep_watts must not exceed idle_watts");
  }
  return Status::Ok();
}

}  // namespace

Status ClusterConfig::Validate() const {
  if (num_home_hosts <= 0 || num_consolidation_hosts < 0 || vms_per_home <= 0) {
    return Status::InvalidArgument("host/VM counts must be positive");
  }
  // TotalVms() and TotalHosts() are ints.
  const int64_t total_vms = int64_t{num_home_hosts} * vms_per_home;
  const int64_t total_hosts = int64_t{num_home_hosts} + num_consolidation_hosts;
  if (total_vms > INT_MAX || total_hosts > INT_MAX) {
    return Status::InvalidArgument("too many VMs or hosts: " + std::to_string(total_vms) +
                                   " VMs on " + std::to_string(total_hosts) + " hosts");
  }
  if (vm_memory_bytes == 0 || host_memory_bytes == 0) {
    return Status::InvalidArgument("memory sizes must be positive");
  }
  // Byte products are compared by division, so none can wrap.
  if (vm_memory_bytes > host_memory_bytes / static_cast<uint64_t>(vms_per_home)) {
    return Status::InvalidArgument(
        "home hosts cannot fit their own VMs: " + std::to_string(vms_per_home) + " x " +
        FormatBytes(vm_memory_bytes) + " > " + FormatBytes(host_memory_bytes) +
        " (use SetVmsPerHome to scale host capacity)");
  }
  // The rack's VM memory is summed in 64 bits (the oracle's parked bytes).
  if (vm_memory_bytes > UINT64_MAX / static_cast<uint64_t>(total_vms)) {
    return Status::InvalidArgument("the rack's VM memory overflows 64 bits: " +
                                   std::to_string(total_vms) + " x " +
                                   FormatBytes(vm_memory_bytes));
  }
  if (!(memory_overcommit >= 1.0 && memory_overcommit <= 3.0)) {
    return Status::InvalidArgument("memory_overcommit must be in [1, 3]");
  }
  // Every host's capacity, host_memory_bytes x memory_overcommit x its
  // generation's capacity_scale, is converted from a double to 64 bits.
  double max_scale = 1.0;
  for (size_t s = 0; s < fleet.segments.size(); ++s) {
    max_scale = std::max(max_scale, ResolvedProfile(static_cast<int>(s) + 1).capacity_scale);
  }
  if (!(static_cast<double>(host_memory_bytes) * memory_overcommit * max_scale < 0x1p64)) {
    return Status::InvalidArgument("host capacity overflows 64 bits: " +
                                   FormatBytes(host_memory_bytes) + " x overcommit " +
                                   std::to_string(memory_overcommit) + " x capacity scale " +
                                   std::to_string(max_scale));
  }
  Status working_set_ok = ValidateWorkingSet(WorkingSetDistribution{}, vm_memory_bytes);
  if (!working_set_ok.ok()) {
    return working_set_ok;
  }
  // A day needs at least one planning round.
  if (planning_interval <= SimTime::Zero() || planning_interval > SimTime::Hours(24.0)) {
    return Status::InvalidArgument("planning interval must be positive and at most a day");
  }
  if (idle_smoothing_intervals < 0) {
    return Status::InvalidArgument("idle smoothing must be non-negative");
  }
  if (!IsRegisteredStrategyName(strategy_name)) {
    return Status::InvalidArgument("unknown consolidation strategy '" + strategy_name +
                                   "' (registered: " + RegisteredStrategyNamesJoined() + ")");
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
      return Status::InvalidArgument("fleet mix covers " + std::to_string(fleet.CoveredHosts()) +
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
        if (vm_memory_bytes > capacity / static_cast<uint64_t>(vms_per_home)) {
          return Status::InvalidArgument(
              "home hosts of generation '" + segment.generation + "' cannot fit their own VMs: " +
              std::to_string(vms_per_home) + " x " + FormatBytes(vm_memory_bytes) + " > " +
              FormatBytes(capacity));
        }
      }
      first += static_cast<size_t>(segment.count);
    }
  }
  // Every power curve the run prices: the default class's, each fleet
  // segment's as scaled, and the memory server's.
  if (!(std::isfinite(fleet_power_scale) && fleet_power_scale > 0.0)) {
    return Status::InvalidArgument("fleet_power_scale must be finite and positive");
  }
  for (int c = 0; c < NumProfileClasses(); ++c) {
    Status power_ok = ValidatePowerProfile(
        ResolvedProfile(c).power, c == 0 ? "host_power" : "fleet profile " + std::to_string(c));
    if (!power_ok.ok()) {
      return power_ok;
    }
  }
  for (Watts w : {memory_server_power.board_watts, memory_server_power.drive_watts}) {
    if (!(std::isfinite(w) && w >= 0.0)) {
      return Status::InvalidArgument(
          "memory_server_power watts must be finite and non-negative");
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
  if (profile_class <= 0 || profile_class > static_cast<int>(fleet.segments.size())) {
    HostProfile profile;
    profile.power = host_power;
    return profile;
  }
  const HostProfile* found = FindHostGeneration(fleet.segments[profile_class - 1].generation);
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

namespace {

constexpr uint64_t kTailSizes = UpkeepRates::kTailSizes;
constexpr uint64_t kStride = UpkeepRates::kJumpStride;
// One jump row per page-aligned size below the threshold.
constexpr size_t kRows = (UpkeepRates::kCapThreshold + kPageSize - 1) / kPageSize;
// A walk from a larger size never falls behind one from a smaller size, so
// the largest start's walk sizes the rows: they keep a stop per stride
// until that walk reaches the memoized tail.
constexpr size_t kStopsPerRow = [] {
  uint64_t to_tail = 0;
  for (uint64_t x = (kRows - 1) * kPageSize; x >= kTailSizes; ++to_tail) {
    x -= UpkeepRates::Fetch(x);
  }
  return static_cast<size_t>((to_tail + kStride - 1) / kStride);
}();
static_assert(kStopsPerRow > 0);
// Below the threshold a fetch is trunc(x * fraction), never the cap, and
// sizes fit an int32_t, whose conversions give the same values as the
// walk's int64_t ones.
static_assert(UpkeepRates::kCapThreshold <= INT32_MAX);

// The fetch walk's tables, built from the very Fetch expression each round
// evaluates (the jump rows from one that gives the same values).
UpkeepRates::FetchTables BuildFetchTables() {
  UpkeepRates::FetchTables t;
  // A fetch never exceeds what remains, so every entry builds on a smaller
  // one; each walk takes at most x rounds, which fits a uint16_t.
  t.tail.resize(kTailSizes);
  for (uint64_t x = 0; x < kTailSizes; ++x) {
    const uint64_t f = UpkeepRates::Fetch(x);
    t.tail[x] = f == 0 ? UpkeepRates::Tail{0, static_cast<uint16_t>(x)}
                       : UpkeepRates::Tail{static_cast<uint16_t>(t.tail[x - f].rounds + 1),
                                           t.tail[x - f].rest};
  }
  // Jump rows. The tail gives each row's length once its last stop is in
  // the tail. A chunk of rows steps a round at a time, which keeps hundreds
  // of independent walks in flight.
  constexpr size_t kChunk = 512;
  t.stops_per_row = kStopsPerRow;
  t.length.resize(kRows);
  t.stops.resize(kRows * kStopsPerRow);
  std::array<int32_t, kChunk> x;
  std::array<int32_t, kChunk> fetching;
  for (size_t first = 0; first < kRows; first += kChunk) {
    const size_t n = std::min(kChunk, kRows - first);
    for (size_t i = 0; i < n; ++i) {
      x[i] = static_cast<int32_t>((first + i) * kPageSize);
      fetching[i] = 0;
    }
    for (size_t j = 0; j < kStopsPerRow; ++j) {
      for (uint64_t round = 0; round < kStride; ++round) {
        for (size_t i = 0; i < n; ++i) {
          const int32_t f =
              static_cast<int32_t>(static_cast<double>(x[i]) * kOnDemandFractionPerRound);
          x[i] -= f;
          fetching[i] += f != 0 ? 1 : 0;
        }
      }
      for (size_t i = 0; i < n; ++i) {
        t.stops[(first + i) * kStopsPerRow + j] = static_cast<uint32_t>(x[i]);
      }
    }
    for (size_t i = 0; i < n; ++i) {
      const uint64_t at = static_cast<uint64_t>(x[i]);
      assert(at < kTailSizes && fetching[i] + t.tail[at].rounds <= UINT8_MAX &&
             "every row ends in the tail with a length a uint8_t holds");
      t.length[first + i] = static_cast<uint8_t>(fetching[i] + t.tail[at].rounds);
    }
  }
  return t;
}

}  // namespace

const UpkeepRates::FetchTables& UpkeepRates::Tables() {
  static const FetchTables tables = BuildFetchTables();
  return tables;
}

UpkeepRates::UpkeepRates(SimTime planning_interval)
    : dirty_step(MiBToBytes(kDirtyMiBPerMinute * planning_interval.minutes())) {
  uint64_t bytes = MiBToBytes(kWsGrowthMiBPerHour * planning_interval.hours());
  growth = (bytes / kPageSize) * kPageSize;
}

UpkeepCounters UpkeepRates::Advance(const VmSlot& vm, uint64_t rounds, uint64_t grown) const {
  const FetchTables& tables = Tables();
  const std::vector<Tail>& tail = tables.tail;
  UpkeepCounters c;
  c.ws_bytes = vm.ws_bytes + grown * growth;
  c.dirty_bytes = rounds > 0 ? std::min(vm.dirty_bytes + rounds * dirty_step, kDirtyCapBytes)
                             : vm.dirty_bytes;
  uint64_t x = vm.ws_unfetched;
  // Cap phase: while the size is at least kCapThreshold every round fetches
  // the whole cap.
  if (x >= kCapThreshold) {
    const uint64_t n = std::min(rounds, (x - kCapThreshold) / kOnDemandCapPerRound + 1);
    x -= n * kOnDemandCapPerRound;
    c.fetches = n;
    rounds -= n;
  }
  // A page-aligned size below the threshold jumps whole strides of its
  // walk, as far as its stops reach: only min(rounds, length) of its rounds
  // fetch.
  if (rounds >= kJumpStride && x < kCapThreshold && x % kPageSize == 0) {
    const size_t row = static_cast<size_t>(x / kPageSize);
    const uint64_t fetching = std::min<uint64_t>(rounds, tables.length[row]);
    const uint64_t j = std::min<uint64_t>(fetching / kJumpStride, tables.stops_per_row);
    if (j > 0) {
      x = tables.stops[row * tables.stops_per_row + j - 1];
      c.fetches += j * kJumpStride;
      rounds -= j * kJumpStride;
    }
  }
  // The exact per-round recurrence, until the rounds run out, a fetch
  // rounds down to nothing, or the memoized tail has the rounds to finish
  // the walk.
  while (rounds > 0) {
    if (x < kTailSizes && tail[x].rounds <= rounds) {
      c.fetches += tail[x].rounds;
      x = tail[x].rest;
      break;
    }
    const uint64_t fetch = Fetch(x);
    if (fetch == 0) {
      break;
    }
    x -= fetch;
    ++c.fetches;
    --rounds;
  }
  c.ws_unfetched = x;
  c.fetched_bytes = vm.ws_unfetched - x;
  return c;
}

}  // namespace oasis
