#include "src/dc/coordinator.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/dc/runner.h"
#include "src/dc/topology.h"
#include "src/power/host_profile.h"
#include "src/power/power_model.h"

namespace oasis {
namespace dc {
namespace {

// Separates the coordinator's cap-window streams from the rack simulation
// seeds derived from the same datacenter seed (both go through RackSeed).
constexpr uint64_t kCapStreamSalt = 0x9D39247E33776D41ull;

// The demand signal the drain tier reads per rack-interval: the population
// parked on consolidation hosts (partials plus idle-full guests).
int ParkedVms(const IntervalSnapshot& s) { return s.partial_vms + s.full_at_consolidation_vms; }

}  // namespace

const char* CoordinatorModeName(CoordinatorMode mode) {
  switch (mode) {
    case CoordinatorMode::kOff:
      return "per-rack-local";
    case CoordinatorMode::kGlobalGreedy:
      return "global-greedy";
    case CoordinatorMode::kAssisted:
      return "coordinator-assisted";
  }
  return "unknown";
}

Status CoordinatorConfig::Validate() const {
  // Written so that NaN fails each range test.
  if (!(cap_events_per_rack_day >= 0.0 && cap_events_per_rack_day <= kMaxCapEventsPerRackDay)) {
    return Status::InvalidArgument("cap_events_per_rack_day must be in [0, " +
                                   std::to_string(static_cast<int>(kMaxCapEventsPerRackDay)) + "]");
  }
  if (!std::isfinite(rack_power_cap_watts)) {
    return Status::InvalidArgument("rack_power_cap_watts must be finite");
  }
  if (cap_events_per_rack_day > 0.0 && rack_power_cap_watts <= 0.0) {
    return Status::InvalidArgument("cap events need a positive rack_power_cap_watts");
  }
  return Status::Ok();
}

CoordinatorStats GlobalCoordinator::Coordinate(const DatacenterRun& run) const {
  CoordinatorStats stats;
  if (config_.mode == CoordinatorMode::kOff || run.racks.empty()) {
    return stats;
  }

  // Canonical view: racks sorted by rack index, whatever order the result
  // array arrived in. Every loop below walks this view, which is what makes
  // the sweep a pure function of the *set* of rack results — the
  // rack-permutation invariance the metamorphic suite pins.
  const size_t num_racks = run.racks.size();
  std::vector<const RackResult*> racks(num_racks);
  for (size_t i = 0; i < num_racks; ++i) {
    racks[i] = &run.racks[i];
  }
  std::sort(racks.begin(), racks.end(),
            [](const RackResult* a, const RackResult* b) { return a->rack < b->rack; });

  size_t intervals = racks[0]->metrics.timeline.size();
  for (const RackResult* rack : racks) {
    intervals = std::min(intervals, rack->metrics.timeline.size());
  }
  if (intervals == 0) {
    return stats;
  }

  const std::vector<IntervalSnapshot>& t0 = racks[0]->metrics.timeline;
  const double interval_s = intervals >= 2 ? (t0[1].time - t0[0].time).seconds() : 300.0;

  // An avoided powered consolidation host sleeps in S3 instead of idling,
  // and its guests' marginal per-VM draw follows them to the sponsor — so
  // the delta per avoided host-interval is idle-vs-S3, priced at each
  // rack's own generation (pod_generations). A rack built from an
  // S3-incapable generation cannot park its consolidation tier at all, so
  // it earns no credit and never starts a drain. With pod_generations
  // empty every rack uses the Table 1 template, exactly as before.
  const HostPowerProfile default_power;
  const Watts default_s3_delta = default_power.idle_watts - default_power.sleep_watts;
  std::vector<Watts> s3_delta_of(num_racks, default_s3_delta);
  std::vector<char> s3_capable_of(num_racks, 1);
  if (!run.config.pod_generations.empty()) {
    for (size_t i = 0; i < num_racks; ++i) {
      const std::string& generation =
          run.config.pod_generations[static_cast<size_t>(racks[i]->pod) %
                                     run.config.pod_generations.size()];
      const HostProfile* profile = FindHostGeneration(generation);
      if (profile == nullptr) {
        continue;  // Validate() rejects unknown names; keep the default here
      }
      s3_capable_of[i] = profile->s3_capable ? 1 : 0;
      s3_delta_of[i] =
          profile->s3_capable ? profile->power.idle_watts - profile->power.sleep_watts : 0.0;
    }
  }
  // The pooled global-greedy sweep cannot attribute avoided hosts to a
  // specific rack, so it credits the cheapest delta in the fleet — keeping
  // the idealized number a bound rather than an overcount.
  Watts pooled_s3_delta = s3_delta_of[0];
  for (size_t i = 1; i < num_racks; ++i) {
    pooled_s3_delta = std::min(pooled_s3_delta, s3_delta_of[i]);
  }

  // Deterministic per-rack cap windows: expected-count rounding plus uniform
  // starts, all drawn from (datacenter seed, rack) — independent of rack
  // count and execution order, the same stream discipline src/fault uses.
  const bool caps_on = config_.rack_power_cap_watts > 0.0 && config_.cap_events_per_rack_day > 0.0;
  std::vector<std::vector<char>> capped;
  if (caps_on) {
    capped.resize(num_racks);
    const int span = std::max(1, static_cast<int>(kCapEventDuration.seconds() / interval_s));
    for (size_t i = 0; i < num_racks; ++i) {
      capped[i].assign(intervals, 0);
      Rng rng(DatacenterTopology::RackSeed(run.config.seed ^ kCapStreamSalt, racks[i]->rack));
      int windows = static_cast<int>(config_.cap_events_per_rack_day);
      if (rng.NextBool(config_.cap_events_per_rack_day - windows)) {
        ++windows;
      }
      for (int w = 0; w < windows; ++w) {
        const size_t start = rng.NextBelow(intervals);
        const size_t end = std::min(intervals, start + static_cast<size_t>(span));
        for (size_t t = start; t < end; ++t) {
          capped[i][t] = 1;
        }
        ++stats.cap_windows;
      }
    }
  }

  // A rack whose local day recorded injected faults never sponsors.
  std::vector<char> faulted(num_racks, 0);
  for (size_t i = 0; i < num_racks; ++i) {
    faulted[i] = racks[i]->metrics.faults_injected > 0 ? 1 : 0;
  }

  auto timeline = [&racks](size_t i, size_t t) -> const IntervalSnapshot& {
    return racks[i]->metrics.timeline[t];
  };

  // Calibrate from the run itself: the capacity of a consolidation host is
  // the densest parked-per-powered-host packing any rack achieved in any
  // interval (the empirically proven limit, Fig 9's ratio; a max over
  // racks, so order-independent), and a rack is near-empty while its
  // parked population is in [1, a quarter of one host's worth]. Both
  // remain pure functions of the shard results.
  int capacity = 1;
  for (size_t i = 0; i < num_racks; ++i) {
    for (size_t t = 0; t < intervals; ++t) {
      const IntervalSnapshot& s = timeline(i, t);
      if (s.powered_consolidation_hosts > 0) {
        const int density =
            (ParkedVms(s) + s.powered_consolidation_hosts - 1) / s.powered_consolidation_hosts;
        capacity = std::max(capacity, density);
      }
    }
  }
  const int near_empty = std::max(1, capacity / 4);
  auto charge_move = [&stats](int vms) {
    const uint64_t bytes = static_cast<uint64_t>(vms) * kDrainBytesPerVm;
    stats.cross_rack_traffic_bytes += bytes;
    stats.migration_energy += ToGiB(bytes) * kWireJoulesPerGib;
  };

  if (config_.mode == CoordinatorMode::kGlobalGreedy) {
    // The idealized bound: every interval, pool the whole datacenter's
    // parked population onto the fewest consolidation hosts — no locality,
    // no caps, no hysteresis, and migration is free.
    for (size_t t = 0; t < intervals; ++t) {
      long long parked = 0;
      long long powered = 0;
      for (size_t i = 0; i < num_racks; ++i) {
        parked += ParkedVms(timeline(i, t));
        powered += timeline(i, t).powered_consolidation_hosts;
      }
      const long long ideal = (parked + capacity - 1) / capacity;
      if (powered > ideal) {
        stats.energy_saved += static_cast<double>(powered - ideal) * pooled_s3_delta * interval_s;
      }
    }
    return stats;
  }

  // kAssisted: the stateful drain sweep. All state is indexed by topology
  // position and updated in topology order, so the sweep is a pure function
  // of the rack results.
  struct DrainState {
    bool drained = false;
    size_t sponsor = 0;
    size_t since = 0;  // interval the drain started
  };
  std::vector<DrainState> state(num_racks);
  std::vector<int> extra(num_racks, 0);  // guest VMs parked into each sponsor

  // Sponsor search: same pod first, then the rest of the datacenter, both in
  // ascending rack order. Returns num_racks when nobody can take the load.
  auto find_sponsor = [&](size_t src, size_t t, int parked) -> size_t {
    for (int pass = 0; pass < 2; ++pass) {
      for (size_t j = 0; j < num_racks; ++j) {
        const bool same_pod = racks[j]->pod == racks[src]->pod;
        if (j == src || same_pod != (pass == 0)) {
          continue;
        }
        if (state[j].drained) {
          continue;
        }
        const IntervalSnapshot& s = timeline(j, t);
        if (s.powered_consolidation_hosts < 1) {
          continue;
        }
        const double room = kSponsorFillRatio * capacity * s.powered_consolidation_hosts;
        if (ParkedVms(s) + extra[j] + parked > room) {
          continue;
        }
        if (faulted[j]) {
          ++stats.fault_excluded_sponsors;
          continue;
        }
        if (caps_on && capped[j][t]) {
          ++stats.cap_blocked_sponsorships;
          continue;
        }
        return j;
      }
    }
    return num_racks;
  };

  for (size_t t = 0; t < intervals; ++t) {
    // Recompute sponsor loads from this interval's demand: a drained rack's
    // guests track its own timeline, so the sponsor carries exactly what the
    // source would have parked locally.
    std::fill(extra.begin(), extra.end(), 0);
    for (size_t i = 0; i < num_racks; ++i) {
      if (state[i].drained) {
        extra[state[i].sponsor] += ParkedVms(timeline(i, t));
      }
    }

    // Phase 1: existing drains either return (demand rose past the
    // near-empty band after the hysteresis window) or earn this interval's
    // S3 credit for the consolidation hosts they keep asleep.
    for (size_t i = 0; i < num_racks; ++i) {
      if (!state[i].drained) {
        continue;
      }
      const IntervalSnapshot& s = timeline(i, t);
      const int parked = ParkedVms(s);
      if (parked > near_empty && t - state[i].since >= static_cast<size_t>(kMinDrainIntervals)) {
        ++stats.drain_returns;
        charge_move(parked);
        extra[state[i].sponsor] -= parked;
        state[i].drained = false;
        continue;
      }
      ++stats.drain_intervals;
      stats.energy_saved +=
          static_cast<double>(s.powered_consolidation_hosts) * s3_delta_of[i] * interval_s;
    }

    // Phase 2: near-empty racks look for a sponsor and drain.
    for (size_t i = 0; i < num_racks; ++i) {
      if (state[i].drained || extra[i] > 0) {
        continue;  // already drained, or currently sponsoring someone
      }
      if (s3_capable_of[i] == 0) {
        continue;  // its consolidation hosts cannot enter S3 — nothing to save
      }
      const IntervalSnapshot& s = timeline(i, t);
      const int parked = ParkedVms(s);
      if (parked < 1 || parked > near_empty || s.powered_consolidation_hosts < 1) {
        continue;
      }
      if (caps_on && capped[i][t]) {
        continue;  // a capped rack is already shedding load locally
      }
      const size_t sponsor = find_sponsor(i, t, parked);
      if (sponsor == num_racks) {
        continue;
      }
      state[i] = DrainState{true, sponsor, t};
      extra[sponsor] += parked;
      ++stats.drains_started;
      stats.vms_drained += static_cast<uint64_t>(parked);
      charge_move(parked);
    }
  }
  return stats;
}

}  // namespace dc
}  // namespace oasis
