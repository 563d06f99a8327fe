#include "src/cluster/invariants.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "src/cluster/manager.h"

namespace oasis {
namespace {

// Relative tolerance for floating-point energy comparisons. The integrals
// are exact piecewise sums, but a 24 h run accumulates hundreds of segment
// additions per meter, so allow rounding noise well below anything a real
// accounting bug would produce (a single mis-billed second at idle draw is
// ~1e2 J; the tolerance on a day's energy is ~1e-2 J).
constexpr double kEnergyRelTol = 1e-8;

bool WithinEnvelope(double value, double lo, double hi) {
  double slack = kEnergyRelTol * (1.0 + std::abs(hi));
  return value >= lo - slack && value <= hi + slack;
}

int64_t H(HostId id) { return static_cast<int64_t>(id); }
int64_t V(VmId id) { return static_cast<int64_t>(id); }

// The walk's view of the checker: checks are counted here and handed over
// in one CountChecks when the walk ends, because the checker's shared
// counter, bumped once per check, puts every shard worker on one cache
// line millions of times a rack-day.
class LocalChecks {
 public:
  explicit LocalChecks(check::InvariantChecker& checker) : checker_(checker) {}
  ~LocalChecks() { checker_.CountChecks(checks_); }
  LocalChecks(const LocalChecks&) = delete;
  LocalChecks& operator=(const LocalChecks&) = delete;

  template <typename DetailFn>
  void Expect(bool ok, const char* invariant, SimTime at, DetailFn&& detail,
              obs::TraceArgs args = {}) {
    ++checks_;
    if (!ok) {
      checker_.Report(invariant, at, detail(), args);
    }
  }

 private:
  check::InvariantChecker& checker_;
  uint64_t checks_ = 0;
};

}  // namespace

void CheckClusterInvariants(const ClusterManager& manager, SimTime now,
                            check::InvariantChecker& shared_checker) {
  LocalChecks checker(shared_checker);
  const ClusterConfig& config = manager.config();
  const size_t num_hosts = manager.num_hosts();
  const size_t num_vms = manager.num_vms();

  // Homes carry their own VMs' full reservation whether or not the VM is
  // away (the §3.2 capacity guarantee): one pass sums every home's share.
  std::vector<uint64_t> homed_bytes(num_hosts, 0);
  for (size_t v = 0; v < num_vms; ++v) {
    const VmSlot& vm = manager.GetVm(static_cast<VmId>(v));
    if (static_cast<size_t>(vm.home) < num_hosts) {  // else reported per VM below
      homed_bytes[vm.home] += config.vm_memory_bytes;
    }
  }

  // --- VM partition: every VM resident on exactly one host ------------------
  std::vector<uint32_t> residencies(num_vms, 0);
  for (size_t h = 0; h < num_hosts; ++h) {
    const ClusterHost& host = manager.GetHost(static_cast<HostId>(h));
    int active_here = 0;
    uint64_t reserved_expected = 0;
    for (VmId vid : host.vms()) {
      checker.Expect(static_cast<size_t>(vid) < num_vms, "cluster.vm_id_in_range", now,
                     [&] { return "host set names unknown VM " + std::to_string(vid); },
                     obs::TraceArgs{H(host.id()), V(vid)});
      if (static_cast<size_t>(vid) >= num_vms) {
        continue;
      }
      ++residencies[vid];
      const VmSlot& vm = manager.GetVm(vid);
      checker.Expect(vm.location == host.id(), "cluster.location_matches_residency", now,
                     [&] {
                       return "VM " + std::to_string(vid) + " resident on host " +
                              std::to_string(host.id()) + " but location says " +
                              std::to_string(vm.location);
                     },
                     obs::TraceArgs{H(host.id()), V(vid)});
      if (vm.activity == VmActivity::kActive) {
        ++active_here;
      }
      // A resident foreign VM only appears on consolidation hosts. A partial
      // reserves its working set with the growth its lazy upkeep has pending.
      if (host.IsConsolidationHost()) {
        reserved_expected += vm.residency == VmResidency::kPartial
                                 ? manager.SettledWsBytes(vid)
                                 : config.vm_memory_bytes;
      }
    }
    if (host.IsHomeHost()) {
      reserved_expected += homed_bytes[h];
    }
    checker.Expect(host.active_vms() == active_here, "cluster.active_count_balanced", now,
                   [&] {
                     return "host " + std::to_string(host.id()) + " counts " +
                            std::to_string(host.active_vms()) + " active VMs, walk found " +
                            std::to_string(active_here);
                   },
                   obs::TraceArgs{H(host.id())});
    checker.Expect(host.reserved_bytes() == reserved_expected,
                   "cluster.reservation_conservation", now,
                   [&] {
                     return "host " + std::to_string(host.id()) + " reserves " +
                            std::to_string(host.reserved_bytes()) +
                            " B but resident footprints sum to " +
                            std::to_string(reserved_expected) + " B";
                   },
                   obs::TraceArgs{H(host.id()), -1,
                                  static_cast<int64_t>(host.reserved_bytes())});
    checker.Expect(host.reserved_bytes() <= host.capacity_bytes(),
                   "cluster.capacity_respected", now,
                   [&] {
                     return "host " + std::to_string(host.id()) + " reserves " +
                            std::to_string(host.reserved_bytes()) + " B of " +
                            std::to_string(host.capacity_bytes()) + " B capacity";
                   },
                   obs::TraceArgs{H(host.id())});
    // Only a home that is asleep or resuming serves pages: the memory server
    // is refreshed when a suspend or resume lands, so a powered or
    // suspending host's is off.
    const bool serving = host.power_state() == HostPowerState::kSleeping ||
                         host.power_state() == HostPowerState::kResuming;
    checker.Expect(!host.memory_server_powered() || (host.IsHomeHost() && serving),
                   "cluster.memory_server_on_homes_only", now,
                   [&] {
                     return std::string(host.IsHomeHost() ? "home" : "consolidation") +
                            " host " + std::to_string(host.id()) + " (" +
                            HostPowerStateName(host.power_state()) +
                            ") has a powered memory server";
                   },
                   obs::TraceArgs{H(host.id())});

    // --- time and energy accounting ----------------------------------------
    // The per-state ledger must cover the run to the microsecond (integer
    // arithmetic, so exactly)...
    checker.Expect(host.ledger().TotalTimeAt(now) == now, "power.ledger_covers_run", now,
                   [&] {
                     return "host " + std::to_string(host.id()) + " ledger covers " +
                            std::to_string(host.ledger().TotalTimeAt(now).micros()) +
                            " us of " + std::to_string(now.micros()) + " us";
                   },
                   obs::TraceArgs{H(host.id())});
    // ...and the meter's integral must sit inside the envelope the power
    // model allows for that state mix: powered draw is bounded by the idle
    // and 20-VM measurements, the transition and sleep states are fixed
    // draws. The bounds come from the host's *own* resolved profile, so the
    // envelope stays exact on heterogeneous fleets.
    const HostPowerProfile& p = host.power_profile();
    const StateTimeLedger& ledger = host.ledger();
    double powered_s = ledger.TimeInAt(HostPowerState::kPowered, now).seconds();
    double suspend_s = ledger.TimeInAt(HostPowerState::kSuspending, now).seconds();
    double resume_s = ledger.TimeInAt(HostPowerState::kResuming, now).seconds();
    double sleep_s = ledger.TimeInAt(HostPowerState::kSleeping, now).seconds();
    // An S3-incapable host must never have spent a microsecond suspending —
    // the transition itself also reports (power.s3_on_incapable_host), this
    // walk catches any path that skipped Transition's gate.
    checker.Expect(host.s3_capable() || suspend_s == 0.0,
                   "power.s3_on_incapable_host", now,
                   [&] {
                     return "host " + std::to_string(host.id()) +
                            " is s3_capable=false but spent " +
                            std::to_string(suspend_s) + " s in kSuspending";
                   },
                   obs::TraceArgs{H(host.id())});
    double fixed = suspend_s * p.suspend_watts + resume_s * p.resume_watts +
                   sleep_s * p.sleep_watts;
    double lo = fixed + powered_s * p.idle_watts;
    double hi = fixed + powered_s * p.watts_at_20_vms;
    double host_energy = host.HostEnergyAt(now);
    checker.Expect(WithinEnvelope(host_energy, lo, hi), "power.energy_within_model", now,
                   [&] {
                     return "host " + std::to_string(host.id()) + " energy " +
                            std::to_string(host_energy) + " J outside the model envelope [" +
                            std::to_string(lo) + ", " + std::to_string(hi) + "] J";
                   },
                   obs::TraceArgs{H(host.id())});
    double ms_hi = config.memory_server_power.TotalWatts() * now.seconds();
    double ms_energy = host.MemoryServerEnergyAt(now);
    checker.Expect(WithinEnvelope(ms_energy, 0.0, ms_hi), "power.ms_energy_within_model",
                   now,
                   [&] {
                     return "host " + std::to_string(host.id()) + " memory server energy " +
                            std::to_string(ms_energy) + " J outside [0, " +
                            std::to_string(ms_hi) + "] J";
                   },
                   obs::TraceArgs{H(host.id())});
  }

  // --- maintained aggregates ------------------------------------------------
  // The Actuator updates these at every residency, in-flight and resident-
  // set transition; re-derive each from the VM table so a missed or
  // double-counted transition is caught within one planning round. The
  // per-host counts cover residents, so they are keyed on vm.location (which
  // the partition walk above ties to the resident sets); the
  // full-at-consolidation bitset is keyed on the VM itself.
  {
    std::vector<int> partials_homed(num_hosts, 0);
    std::vector<int> fac_homed(num_hosts, 0);
    std::vector<int> inflight_residents(num_hosts, 0);
    std::vector<int> partial_residents(num_hosts, 0);
    std::vector<int> upkeep_residents(num_hosts, 0);
    for (size_t v = 0; v < num_vms; ++v) {
      VmId vid = static_cast<VmId>(v);
      const VmSlot& vm = manager.GetVm(vid);
      bool fac = vm.residency == VmResidency::kFullAtConsolidation;
      checker.Expect(manager.FacBitAt(vid) == fac, "cluster.fac_bits_exact", now,
                     [&] {
                       return "VM " + std::to_string(vid) + " full-at-consolidation bit is " +
                              (fac ? "clear" : "set") + " but its residency " +
                              (fac ? "is" : "is not") + " kFullAtConsolidation";
                     },
                     obs::TraceArgs{H(vm.location), V(vid)});
      if (static_cast<size_t>(vm.home) >= num_hosts ||
          static_cast<size_t>(vm.location) >= num_hosts) {
        continue;  // reported by the per-VM checks below
      }
      if (vm.residency == VmResidency::kPartial) {
        ++partials_homed[vm.home];
        ++partial_residents[vm.location];
      } else if (fac) {
        ++fac_homed[vm.home];
      }
      if (vm.migration_in_flight) {
        ++inflight_residents[vm.location];
      }
      if (vm.UpkeepEligible()) {
        ++upkeep_residents[vm.location];
      }
    }
    auto expect_exact = [&](const char* invariant, const char* what, HostId hid,
                            int maintained, int derived) {
      checker.Expect(maintained == derived, invariant, now,
                     [&] {
                       return "host " + std::to_string(hid) + " counter says " +
                              std::to_string(maintained) + " " + what + ", walk found " +
                              std::to_string(derived);
                     },
                     obs::TraceArgs{H(hid), -1, static_cast<int64_t>(maintained)});
    };
    for (size_t h = 0; h < num_hosts; ++h) {
      HostId hid = static_cast<HostId>(h);
      expect_exact("cluster.partials_homed_counter_exact", "partials homed", hid,
                   manager.PartialsHomedAt(hid), partials_homed[h]);
      expect_exact("cluster.fac_homed_exact", "full-at-consolidation VMs homed", hid,
                   manager.FacHomedAt(hid), fac_homed[h]);
      expect_exact("cluster.inflight_residents_exact", "residents in flight", hid,
                   manager.InflightResidentsOn(hid), inflight_residents[h]);
      expect_exact("cluster.partial_residents_exact", "partial residents", hid,
                   manager.PartialResidentsOn(hid), partial_residents[h]);
      expect_exact("cluster.upkeep_residents_balanced", "upkeep-eligible residents", hid,
                   manager.UpkeepResidentsOn(hid), upkeep_residents[h]);
    }
  }

  // --- pending completions --------------------------------------------------
  // A live entry (its epoch still the VM's) is the completion of the VM's
  // current migration. The batch that opened this event retired every
  // entry keyed before it, so each live one must still lie ahead of
  // (now, current_seq()); the per-VM loop below wants exactly one for an
  // in-flight VM and none for any other.
  std::vector<uint8_t> live_completions(num_vms, 0);
  std::vector<uint8_t> completion_due(num_vms, 0);
  const uint64_t seq = manager.current_seq();
  for (const PendingCompletion& c : manager.PendingCompletions()) {
    if (static_cast<size_t>(c.vm) >= num_vms || manager.GetVm(c.vm).op_epoch != c.epoch) {
      continue;  // stale: retires as a no-op
    }
    live_completions[c.vm] = static_cast<uint8_t>(std::min(live_completions[c.vm] + 1, 2));
    if (c.done < now || (c.done == now && c.seq <= seq)) {
      completion_due[c.vm] = 1;
    }
  }

  // --- per-VM state machine -------------------------------------------------
  // UpdateActivities only visits VMs whose trace bit flipped, so re-read
  // every VM's bit at the interval the last planning round applied.
  const TraceSet& trace = manager.trace();
  const int interval = manager.TraceIntervalAt(now);
  for (size_t v = 0; v < num_vms; ++v) {
    VmId vid = static_cast<VmId>(v);
    const VmSlot& vm = manager.GetVm(vid);
    checker.Expect(!vm.UpkeepEligible() || vm.upkeep_mark <= manager.upkeep_round(),
                   "cluster.upkeep_mark_not_ahead", now,
                   [&] {
                     return "VM " + std::to_string(vid) + " upkeep mark " +
                            std::to_string(vm.upkeep_mark) + " is past round " +
                            std::to_string(manager.upkeep_round());
                   },
                   obs::TraceArgs{H(vm.location), V(vid)});
    // The byte counters are checked as an eager upkeep walk would hold them:
    // derived from the lagging slot, never settled here, so a missing settle
    // in the actuator cannot be masked by turning the checker on.
    const UpkeepCounters settled = manager.SettledUpkeep(vid);
    bool traced_active = trace[v % trace.size()].IsActive(interval);
    checker.Expect(traced_active == (vm.activity == VmActivity::kActive),
                   "cluster.activity_matches_trace", now,
                   [&] {
                     return "VM " + std::to_string(vid) + " is " +
                            (traced_active ? "idle" : "active") + " but its trace says " +
                            (traced_active ? "active" : "idle") + " in interval " +
                            std::to_string(interval);
                   },
                   obs::TraceArgs{H(vm.location), V(vid)});
    checker.Expect(residencies[v] == 1, "cluster.vm_on_exactly_one_host", now,
                   [&] {
                     return "VM " + std::to_string(vid) + " resident on " +
                            std::to_string(residencies[v]) + " hosts";
                   },
                   obs::TraceArgs{H(vm.location), V(vid)});
    checker.Expect(static_cast<size_t>(vm.home) < num_hosts &&
                       manager.GetHost(vm.home).IsHomeHost(),
                   "cluster.home_is_home", now,
                   [&] {
                     return "VM " + std::to_string(vid) + " homed at non-home host " +
                            std::to_string(vm.home);
                   },
                   obs::TraceArgs{H(vm.home), V(vid)});
    bool location_legal = true;
    switch (vm.residency) {
      case VmResidency::kFullAtHome:
        location_legal = vm.location == vm.home;
        break;
      case VmResidency::kPartial:
      case VmResidency::kFullAtConsolidation:
        location_legal = static_cast<size_t>(vm.location) < num_hosts &&
                         manager.GetHost(vm.location).IsConsolidationHost();
        break;
    }
    checker.Expect(location_legal, "cluster.residency_location_consistent", now,
                   [&] {
                     return "VM " + std::to_string(vid) + " residency/location mismatch: "
                            "home=" + std::to_string(vm.home) +
                            " location=" + std::to_string(vm.location);
                   },
                   obs::TraceArgs{H(vm.location), V(vid)});
    checker.Expect(settled.ws_unfetched <= settled.ws_bytes, "cluster.ws_fetch_conservation",
                   now,
                   [&] {
                     return "VM " + std::to_string(vid) + " has " +
                            std::to_string(settled.ws_unfetched) + " B unfetched of a " +
                            std::to_string(settled.ws_bytes) + " B working set";
                   },
                   obs::TraceArgs{H(vm.location), V(vid),
                                  static_cast<int64_t>(settled.ws_unfetched)});
    checker.Expect(vm.residency == VmResidency::kPartial ||
                       (vm.ws_bytes == 0 && vm.ws_unfetched == 0 && vm.dirty_bytes == 0),
                   "cluster.full_vm_carries_no_partial_state", now,
                   [&] {
                     return "full VM " + std::to_string(vid) + " still carries ws=" +
                            std::to_string(vm.ws_bytes) + " B unfetched=" +
                            std::to_string(vm.ws_unfetched) + " B dirty=" +
                            std::to_string(vm.dirty_bytes) + " B";
                   },
                   obs::TraceArgs{H(vm.location), V(vid)});
    checker.Expect(settled.dirty_bytes <= kDirtyCapBytes,
                   "cluster.dirty_within_cap", now,
                   [&] {
                     return "VM " + std::to_string(vid) + " dirtied " +
                            std::to_string(settled.dirty_bytes) + " B past the cap of " +
                            std::to_string(kDirtyCapBytes) + " B";
                   },
                   obs::TraceArgs{H(vm.location), V(vid),
                                  static_cast<int64_t>(settled.dirty_bytes)});
    checker.Expect(vm.migration_in_flight == (vm.pending_op != VmSlot::PendingOp::kNone),
                   "cluster.migration_bookkeeping_paired", now,
                   [&] {
                     return "VM " + std::to_string(vid) + " migration_in_flight=" +
                            (vm.migration_in_flight ? "true" : "false") +
                            " disagrees with pending_op";
                   },
                   obs::TraceArgs{H(vm.location), V(vid)});
    checker.Expect(live_completions[v] == (vm.migration_in_flight ? 1 : 0) &&
                       completion_due[v] == 0,
                   "cluster.completion_pending_exact", now,
                   [&] {
                     return "VM " + std::to_string(vid) + " migration_in_flight=" +
                            (vm.migration_in_flight ? "true" : "false") + " has " +
                            std::to_string(live_completions[v]) +
                            " live pending completions" +
                            (completion_due[v] != 0 ? ", one already due" : "");
                   },
                   obs::TraceArgs{H(vm.location), V(vid)});
  }
}

}  // namespace oasis
