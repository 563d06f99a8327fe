// The Oasis cluster manager (§3) driving a trace-driven simulated day (§5).
//
// The manager is a thin orchestrator over three layers (DESIGN.md,
// "Control-plane layering"):
//
//   ClusterView            what strategies read    (src/cluster/view.h)
//   ConsolidationStrategy  decides, per interval   (src/cluster/strategy.h)
//   Actuator               all mechanism/mutation  (src/cluster/actuator.h)
//
// Every planning interval (5 minutes) the manager:
//   1. applies the activity trace to the VMs whose activity flipped since
//      the previous round (an XOR of two rows of a per-interval VM bitset),
//      handing idle->active transitions to the actuator (in-place
//      conversion to a full VM, NewHome moves, or the Default
//      wake-home-and-return-all fallback);
//   2. runs per-partial-VM upkeep: on-demand fetch traffic, dirty-state
//      growth, and working-set growth (which can exhaust a consolidation
//      host and force a return), applied lazily (DESIGN.md, "Lazy upkeep");
//   3. runs the configured consolidation strategy (config.strategy_name;
//      the default "oasis-greedy" reproduces the paper's §3 algorithm and
//      the pre-refactor manager byte for byte);
//   4. sweeps mechanism-owned sleep opportunities and records the
//      timeline/energy/latency/traffic metrics of §5.
//
// Migration latencies serialize on per-host channels and host S3 transitions
// take their measured 3.1 s / 2.3 s, so reintegration storms and wake-ups
// show up in the delay distribution exactly as in Fig 11.
//
// One deliberate deviation from §3.2 is documented in DESIGN.md: a VM's home
// host never changes (the paper re-homes a converted VM onto its
// consolidation host). Keeping the original home preserves every dynamic the
// evaluation depends on while keeping capacity accounting well-defined.

#ifndef OASIS_SRC_CLUSTER_MANAGER_H_
#define OASIS_SRC_CLUSTER_MANAGER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/cluster/actuator.h"
#include "src/cluster/cluster_types.h"
#include "src/cluster/host.h"
#include "src/cluster/metrics.h"
#include "src/cluster/strategy.h"
#include "src/cluster/view.h"
#include "src/common/rng.h"
#include "src/mem/working_set.h"
#include "src/sim/simulator.h"
#include "src/trace/activity_trace.h"

namespace oasis {

class ClusterManager {
 public:
  // `trace` must hold at least one user-day; VM u follows user
  // u % trace.size().
  //
  // `run_context` (optional) scopes all observability of this cluster's run
  // to a run-local collector — the experiment runner passes one per worker
  // so concurrent runs never share a tracer or metrics registry. With
  // nullptr the process-global collectors are used, exactly as before.
  ClusterManager(const ClusterConfig& config, TraceSet trace,
                 obs::RunContext* run_context = nullptr);

  // Simulates one full day and returns the collected metrics.
  ClusterMetrics Run();

  // Baseline energy: every home host powered all day at its loaded draw,
  // with no consolidation (the §5.3 normalization). User activity does not
  // enter it.
  static Joules BaselineEnergy(const ClusterConfig& config);

  const ClusterConfig& config() const { return config_; }
  // VM u follows trace()[u % trace().size()].
  const TraceSet& trace() const { return trace_; }
  // The trace interval applied by the last planning round at or before
  // `now`: rounds fire every planning_interval from midnight, and each reads
  // the trace at its own 5-minute resolution.
  int TraceIntervalAt(SimTime now) const;

  // Read-only introspection for tests and diagnostics.
  const ClusterHost& GetHost(HostId id) const { return *state_.hosts[id]; }
  const VmSlot& GetVm(VmId id) const { return state_.vms[id]; }
  size_t num_hosts() const { return state_.hosts.size(); }
  size_t num_vms() const { return state_.vms.size(); }
  // The maintained aggregates (see ClusterState); the invariant checker
  // re-derives each of them from the VM table every round.
  int PartialsHomedAt(HostId home) const { return state_.partials_homed[home]; }
  int FacHomedAt(HostId home) const { return state_.fac_homed[home]; }
  bool FacBitAt(VmId vm) const { return (state_.fac_vm_bits[vm / 64] >> (vm % 64)) & 1; }
  int InflightResidentsOn(HostId host) const { return state_.inflight_residents[host]; }
  int PartialResidentsOn(HostId host) const { return state_.partial_residents[host]; }
  int UpkeepResidentsOn(HostId host) const { return state_.upkeep_residents[host]; }
  uint32_t upkeep_round() const { return state_.upkeep_round; }
  // `vm`'s counters as an eager upkeep walk would hold them now; derived
  // read-only, so looking never settles anything.
  UpkeepCounters SettledUpkeep(VmId vm) const {
    return state_.upkeep.Settled(state_.vms[vm], state_.upkeep_round);
  }
  const FaultInjector& fault_injector() const { return fault_; }
  const ConsolidationStrategy& strategy() const { return *strategy_; }

  // The strategies' window onto this cluster. Exposed so strategy unit
  // tests can drive planning entry points (e.g. PlaceAndPrice) against a
  // manager's real state without simulating a day. Non-const because the
  // view carries the shared planning streams.
  ClusterView View() { return ClusterView(config_, state_, &rng_, &ws_sampler_); }

 private:
  // Steps a day round by round against the eager upkeep walk kept as a
  // reference in tests/upkeep_test.cpp.
  friend struct UpkeepTestPeer;

  // --- interval pipeline --------------------------------------------------
  // One planning round: UpdateActivities, the actuator's PartialVmUpkeep,
  // then PlanAndRecord (the strategy, the sleep sweeps, the snapshot and the
  // invariant walk).
  void OnInterval(SimTime now, int interval);
  void UpdateActivities(SimTime now, int interval);
  void PlanAndRecord(SimTime now);
  void RecordSnapshot(SimTime now);
  int RoundsPerDay() const;
  const uint64_t* ActivityRow(int interval) const {
    return &activity_rows_[static_cast<size_t>(interval) * row_words_];
  }

  ClusterConfig config_;
  TraceSet trace_;
  // One bitset over all VMs per trace interval: bit v of row i is set iff
  // VM v's user is active in interval i. Row i occupies row_words_ words
  // from activity_rows_[i * row_words_].
  std::vector<uint64_t> activity_rows_;
  size_t row_words_ = 0;
  // The interval whose row every vm.activity currently matches.
  int applied_interval_ = 0;
  obs::RunContext* run_context_ = nullptr;
  Simulator sim_;
  Rng rng_;
  WorkingSetSampler ws_sampler_;
  FaultInjector fault_;
  ClusterState state_;
  ClusterMetrics metrics_;
  std::unique_ptr<ConsolidationStrategy> strategy_;
  Actuator act_;  // constructed last: holds references to everything above
};

}  // namespace oasis

#endif  // OASIS_SRC_CLUSTER_MANAGER_H_
