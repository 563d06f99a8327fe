// The global drain tier: the only component that acts *between* racks.
//
// Each rack runs the paper's full control plane locally (src/cluster); the
// GlobalCoordinator replays the merged per-rack interval timelines — in
// topology order, one planning interval at a time — and models the thin set
// of inter-rack actions a datacenter operator layers on top of rack-local
// consolidation:
//
//   * cross-rack drains: a rack whose consolidation tier is near-empty
//     (few parked VMs keeping >= 1 consolidation host powered) exports its
//     parked load to a sponsor rack with spare consolidation capacity —
//     same pod first — and powers its own consolidation hosts down to S3
//     for as long as the local demand signal stays low;
//   * rack-level power caps: deterministically sampled cap windows (the
//     same xoshiro/SplitMix discipline as src/fault) mark racks that must
//     shed load; the coordinator never sponsors load *into* a capped rack
//     and counts the placements the cap blocked;
//   * fault awareness: racks whose local day recorded injected faults are
//     never chosen as sponsors — a rack that crashed hosts is no place to
//     park another rack's VMs.
//
// The coordinator is an overlay over completed shard results, not a
// co-simulation: it charges cross-rack migration traffic and wire energy at
// drain start/stop and credits the S3 delta of the source rack's
// consolidation hosts per drained interval, using each rack's own timeline
// as the demand signal. That keeps it a pure, execution-order-independent
// function of the shard results — the property the metamorphic suite pins
// (jobs 1-vs-N identity, rack-permutation invariance, coordinator-off ==
// sum of independent rack runs). The modelling approximations are
// documented in DESIGN.md, "Datacenter hierarchy".

#ifndef OASIS_SRC_DC_COORDINATOR_H_
#define OASIS_SRC_DC_COORDINATOR_H_

#include <cstdint>

#include "src/common/status.h"
#include "src/common/units.h"

namespace oasis {
namespace dc {

struct DatacenterRun;  // src/dc/runner.h

enum class CoordinatorMode {
  kOff,           // per-rack-local: every rack keeps its own parked load
  kGlobalGreedy,  // idealized flat packing: no locality, caps or costs
  kAssisted,      // the drain tier above: locality + hysteresis + caps
};

const char* CoordinatorModeName(CoordinatorMode mode);

// The drain tier's fixed policy. A consolidation host's capacity and the
// near-empty band are calibrated from each run (see Coordinate); these
// constants are the rest.
//
// Once drained, a rack stays drained for at least kMinDrainIntervals
// intervals (anti-ping-pong hysteresis); it undrains as soon as the local
// demand signal rises above the near-empty band afterwards.
inline constexpr int kMinDrainIntervals = 3;
// The fraction of its calibrated capacity a sponsor may be filled to.
inline constexpr double kSponsorFillRatio = 0.9;
// Cross-rack move cost: partial-VM descriptor plus the idle working set
// (~16 MiB + ~48 MiB), charged per drained VM at drain start and again at
// return, plus per-GiB wire energy for the inter-rack fabric.
inline constexpr uint64_t kDrainBytesPerVm = 64 * kMiB;
inline constexpr double kWireJoulesPerGib = 180.0;
// How long one sampled rack power-cap window lasts.
inline constexpr SimTime kCapEventDuration = SimTime::Hours(2.0);
// The most cap windows a rack may expect per day: one starting every hour,
// so with kCapEventDuration windows a rack is capped most of the day.
inline constexpr double kMaxCapEventsPerRackDay = 24.0;

struct CoordinatorConfig {
  CoordinatorMode mode = CoordinatorMode::kAssisted;

  // Rack power-cap windows. With cap_events_per_rack_day > 0 and a positive
  // cap, each rack samples Poisson cap windows from (datacenter seed, rack) —
  // deterministic, per-rack streams exactly like the fault planner's. A
  // capped rack never sponsors and never starts a drain. The watt value is
  // only ever tested for > 0: it switches the windows on, but no rack's
  // power is compared against it, so any positive value gives the same run.
  // Both must be finite; cap_events_per_rack_day lies in
  // [0, kMaxCapEventsPerRackDay].
  double rack_power_cap_watts = 0.0;
  double cap_events_per_rack_day = 0.0;

  Status Validate() const;
};

// Everything the drain tier did, plus its net energy effect. All counters
// are exact and deterministic for a given DatacenterRun.
struct CoordinatorStats {
  uint64_t drains_started = 0;
  uint64_t drain_returns = 0;
  uint64_t vms_drained = 0;      // VM moves charged at drain starts
  uint64_t drain_intervals = 0;  // rack-intervals spent drained
  uint64_t cross_rack_traffic_bytes = 0;
  uint64_t cap_windows = 0;  // sampled cap windows across racks
  uint64_t cap_blocked_sponsorships = 0;
  uint64_t fault_excluded_sponsors = 0;
  Joules energy_saved = 0.0;      // S3 delta of drained consolidation hosts
  Joules migration_energy = 0.0;  // wire energy of cross-rack moves

  Joules NetSaved() const { return energy_saved - migration_energy; }
};

class GlobalCoordinator {
 public:
  explicit GlobalCoordinator(const CoordinatorConfig& config) : config_(config) {}

  // Replays `run`'s merged interval timelines and returns the inter-rack
  // action ledger. Pure: same run, same stats, regardless of how the shards
  // were executed. kOff returns all-zero stats. A consolidation host's
  // capacity is the densest packing any rack reached in any interval,
  // max ceil(parked / powered consolidation hosts); a rack is near-empty
  // while it parks between 1 and max(1, capacity / 4) VMs.
  CoordinatorStats Coordinate(const DatacenterRun& run) const;

  const CoordinatorConfig& config() const { return config_; }

 private:
  CoordinatorConfig config_;
};

}  // namespace dc
}  // namespace oasis

#endif  // OASIS_SRC_DC_COORDINATOR_H_
