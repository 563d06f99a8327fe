#include "src/cluster/cluster_types.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <climits>
#include <cmath>
#include <cstdint>

#include "src/cluster/strategy.h"
#include "src/common/interned.h"
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
  // A round fetches at most what remains, and a day's dirty or working-set
  // growth must stay below 2^62 bytes, where the upkeep counters' sums
  // cannot wrap and each round's step converts from a double in range.
  if (!(volumes.on_demand_fraction_per_interval >= 0.0 &&
        volumes.on_demand_fraction_per_interval <= 1.0)) {
    return Status::InvalidArgument("on_demand_fraction_per_interval must be in [0, 1]");
  }
  constexpr double kMaxDayMiB = 0x1p62 / static_cast<double>(kMiB);
  if (!(volumes.dirty_mib_per_minute >= 0.0 &&
        volumes.dirty_mib_per_minute * (24.0 * 60.0) < kMaxDayMiB)) {
    return Status::InvalidArgument(
        "dirty_mib_per_minute must be non-negative and dirty less than 2^62 bytes a day");
  }
  if (!(volumes.ws_growth_mib_per_hour >= 0.0 &&
        volumes.ws_growth_mib_per_hour * 24.0 < kMaxDayMiB)) {
    return Status::InvalidArgument(
        "ws_growth_mib_per_hour must be non-negative and grow less than 2^62 bytes a day");
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

// The tables of `fetch`'s rates, built from the very Fetch expression the
// walk evaluates (the jump rows from one that gives the same values).
UpkeepRates::FetchTables BuildFetchTables(const UpkeepRates& fetch) {
  using Tables = UpkeepRates::FetchTables;
  Tables t;
  // Fetch is monotone in the unfetched size (a product with a non-negative
  // constant, truncated), so the threshold is a binary search on the very
  // expression each round evaluates. Working sets stay far below 2^62.
  constexpr uint64_t kLimit = uint64_t{1} << 62;
  if (fetch.fetch_cap > 0 && fetch.Fetch(kLimit) == fetch.fetch_cap) {
    uint64_t lo = 0;
    uint64_t hi = kLimit;
    while (lo < hi) {
      uint64_t mid = lo + (hi - lo) / 2;
      if (fetch.Fetch(mid) == fetch.fetch_cap) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    t.cap_threshold = hi;
  }
  // A fetch never exceeds what remains, so every entry builds on a smaller
  // one; each walk takes at most x rounds, which fits a uint16_t.
  constexpr uint64_t kTailSizes = UpkeepRates::kTailSizes;
  t.tail.resize(kTailSizes);
  for (uint64_t x = 0; x < kTailSizes; ++x) {
    uint64_t f = fetch.Fetch(x);
    assert(f <= x && "the on-demand fraction must be in [0, 1]");
    t.tail[x] = f == 0 ? UpkeepRates::Tail{0, static_cast<uint16_t>(x)}
                       : UpkeepRates::Tail{static_cast<uint16_t>(t.tail[x - f].rounds + 1),
                                           t.tail[x - f].rest};
  }
  if (t.cap_threshold > UpkeepRates::kJumpRowsBound) {
    return t;
  }
  // Jump rows. A walk from a larger size never falls behind one from a
  // smaller size, so the largest start's walk sizes the rows: they keep a
  // stop per stride until that walk reaches the memoized tail, and the tail
  // then gives each row's length. A row that has not reached the tail by
  // its last stop, or walks longer than a length can say, leaves no rows.
  constexpr uint64_t kStride = UpkeepRates::kJumpStride;
  const size_t rows = static_cast<size_t>((t.cap_threshold + kPageSize - 1) / kPageSize);
  uint64_t to_tail = 0;  // rounds until the largest start's walk is in the tail
  for (uint64_t x = (rows - 1) * kPageSize; x >= kTailSizes; ++to_tail) {
    const uint64_t f = fetch.Fetch(x);
    if (f == 0 || to_tail == kStride * UpkeepRates::kMaxStopsPerRow) {
      return t;
    }
    x -= f;
  }
  const size_t stops_per_row = static_cast<size_t>((to_tail + kStride - 1) / kStride);
  if (stops_per_row == 0) {
    return t;
  }
  // Below the threshold a fetch is trunc(x * fraction), never the cap, and
  // below kJumpRowsBound sizes fit an int32_t, whose conversions give the
  // same values as the walk's int64_t ones. A chunk of rows steps a round
  // at a time, which keeps hundreds of independent walks in flight.
  constexpr size_t kChunk = 512;
  std::vector<uint8_t> length(rows);
  std::vector<uint32_t> stops(rows * stops_per_row);
  const double fraction = fetch.fetch_fraction;
  std::array<int32_t, kChunk> x;
  std::array<int32_t, kChunk> fetching;
  for (size_t first = 0; first < rows; first += kChunk) {
    const size_t n = std::min(kChunk, rows - first);
    for (size_t i = 0; i < n; ++i) {
      x[i] = static_cast<int32_t>((first + i) * kPageSize);
      fetching[i] = 0;
    }
    for (size_t j = 0; j < stops_per_row; ++j) {
      for (uint64_t round = 0; round < kStride; ++round) {
        for (size_t i = 0; i < n; ++i) {
          const int32_t f = static_cast<int32_t>(static_cast<double>(x[i]) * fraction);
          x[i] -= f;
          fetching[i] += f != 0 ? 1 : 0;
        }
      }
      for (size_t i = 0; i < n; ++i) {
        stops[(first + i) * stops_per_row + j] = static_cast<uint32_t>(x[i]);
      }
    }
    for (size_t i = 0; i < n; ++i) {
      const uint64_t at = static_cast<uint64_t>(x[i]);
      if (at >= kTailSizes || fetching[i] + t.tail[at].rounds > UINT8_MAX) {
        return t;
      }
      length[first + i] = static_cast<uint8_t>(fetching[i] + t.tail[at].rounds);
    }
  }
  t.stops_per_row = stops_per_row;
  t.length = std::move(length);
  t.stops = std::move(stops);
  return t;
}

}  // namespace

UpkeepRates::UpkeepRates(const ClusterConfig& config)
    : dirty_step(MiBToBytes(config.volumes.dirty_mib_per_minute *
                            config.planning_interval.minutes())),
      dirty_cap(config.volumes.dirty_cap_bytes),
      fetch_fraction(config.volumes.on_demand_fraction_per_interval),
      fetch_cap(config.volumes.on_demand_cap_per_interval) {
  uint64_t bytes = MiBToBytes(config.volumes.ws_growth_mib_per_hour *
                              config.planning_interval.hours());
  growth = (bytes / kPageSize) * kPageSize;
  static Interned<std::pair<uint64_t, uint64_t>, FetchTables> shared;
  tables = &shared.Get({std::bit_cast<uint64_t>(fetch_fraction), fetch_cap},
                       [this] { return BuildFetchTables(*this); });
  cap_threshold = tables->cap_threshold;
}

UpkeepCounters UpkeepRates::Advance(const VmSlot& vm, uint64_t rounds, uint64_t grown) const {
  assert(tables != nullptr && "walks need rates built from a config");
  const std::vector<Tail>& tail = tables->tail;
  UpkeepCounters c;
  c.ws_bytes = vm.ws_bytes + grown * growth;
  c.dirty_bytes = rounds > 0 ? std::min(vm.dirty_bytes + rounds * dirty_step, dirty_cap)
                             : vm.dirty_bytes;
  uint64_t x = vm.ws_unfetched;
  // Cap phase: while the size is at least cap_threshold every round fetches
  // the whole cap.
  if (cap_threshold != kNoCapPhase && x >= cap_threshold) {
    const uint64_t n = std::min(rounds, (x - cap_threshold) / fetch_cap + 1);
    x -= n * fetch_cap;
    c.fetches = n;
    rounds -= n;
  }
  // A page-aligned size below the threshold jumps whole strides of its
  // walk, as far as its stops reach: only min(rounds, length) of its rounds
  // fetch.
  if (!tables->length.empty() && rounds >= kJumpStride && x < cap_threshold &&
      x % kPageSize == 0) {
    const size_t row = static_cast<size_t>(x / kPageSize);
    const uint64_t fetching = std::min<uint64_t>(rounds, tables->length[row]);
    const uint64_t j = std::min<uint64_t>(fetching / kJumpStride, tables->stops_per_row);
    if (j > 0) {
      x = tables->stops[row * tables->stops_per_row + j - 1];
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
