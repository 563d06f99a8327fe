// Deterministic fault injection for the consolidation control plane.
//
// The paper's §3.1 controller assumes every wake-on-LAN, migration and S3
// transition succeeds. This subsystem removes that assumption without
// giving up reproducibility: every fault is either scheduled explicitly at a
// sim-time or sampled from per-class rates using xoshiro streams derived
// from the run seed, so the same seed always produces the same fault
// schedule — and therefore byte-identical simulation results.
//
// Two kinds of fault classes exist:
//   * time-scheduled (host crash, memory-server failure, migration abort):
//     FaultPlan::Build pre-samples their firing times as a Poisson process
//     over one simulated day and merges explicitly scheduled entries;
//     the cluster manager walks the plan as simulator events.
//   * query-sampled (WoL loss, S3 resume hang):
//     the affected component asks the injector at the moment the operation
//     happens (Sample*); each class draws from its own stream so interleaving
//     across components cannot perturb another class.
//
// A disabled injector (the default) builds no plan, owns no streams, and
// every Sample* early-returns without consuming a draw — runs with faults
// disabled are byte-identical to builds without the subsystem.
//
// Every injected fault is recorded as an obs instant ("fault"/"inject.<c>")
// and a fault.injected.<c> counter; every completed recovery as a span
// ("fault"/"recover.<c>") and fault.recovered.<c>. Faults whose scheduled
// target is ineligible (e.g. a crash when no consolidation host is powered)
// are recorded under fault.skipped.<c> instead, so tests can assert an exact
// inject/recover pairing.

#ifndef OASIS_SRC_FAULT_FAULT_H_
#define OASIS_SRC_FAULT_FAULT_H_

#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/common/units.h"
#include "src/obs/trace.h"

namespace oasis {

// kRpcDrop and kRpcDelay are retired: nothing injects them. Their index slots
// stay because the class index salts every plan and query stream and sizes
// the per-class metric arrays folded into pinned digests, so renumbering
// would change every fault schedule and digest.
enum class FaultClass {
  kHostCrash = 0,        // consolidation host loses power instantly
  kWolLoss,              // wake-on-LAN packet dropped; re-sent on a timeout
  kRpcDrop,              // retired
  kRpcDelay,             // retired
  kMemoryServerFailure,  // a sleeping home's memory server dies
  kMigrationAbort,       // an in-flight migration aborts at a page boundary
  kResumeHang,           // S3 resume wedges until the watchdog fires
};

inline constexpr int kNumFaultClasses = 7;

// The classes a cluster day can inject, in index order.
inline constexpr FaultClass kLiveFaultClasses[] = {
    FaultClass::kHostCrash, FaultClass::kWolLoss, FaultClass::kMemoryServerFailure,
    FaultClass::kMigrationAbort, FaultClass::kResumeHang};

// Stable lowercase identifier used in metric names ("fault.injected.<name>").
const char* FaultClassName(FaultClass fault);

// The time-scheduled classes are sampled over one simulated day.
inline constexpr SimTime kFaultHorizon = SimTime::Hours(24.0);
// The largest Poisson rate a time-scheduled class accepts: one fault a
// minute on average, far past any failure rate worth modelling. It bounds a
// class's sampled plan to ~1,440 events a day.
inline constexpr double kMaxFaultsPerHour = 60.0;

// Recovery policy. A lost WoL packet is re-sent after kWolRetryTimeout
// without link-up; after kMaxWolRetries lost packets the wake escalates to
// the management processor. A hung S3 resume is re-tried once
// kResumeWatchdog fires. A VM on a crashed host restarts from its home's
// disk image, booting kVmRestartLatency after the home host is powered.
inline constexpr SimTime kWolRetryTimeout = SimTime::Seconds(1.0);
inline constexpr int kMaxWolRetries = 5;
inline constexpr SimTime kResumeWatchdog = SimTime::Seconds(10.0);
inline constexpr SimTime kVmRestartLatency = SimTime::Seconds(30.0);

// One explicitly scheduled (or plan-sampled) fault firing.
struct ScheduledFault {
  SimTime at;
  FaultClass fault = FaultClass::kHostCrash;
  // Target host/VM id depending on the class; -1 lets the injection site pick
  // a deterministic eligible target (lowest-id match).
  int64_t target = -1;

  bool operator==(const ScheduledFault& o) const {
    return at == o.at && fault == o.fault && target == o.target;
  }
};

struct FaultConfig {
  // Master switch. When false the injector is inert: no plan, no streams, no
  // draws, no recording — the simulation behaves exactly as if the subsystem
  // did not exist.
  bool enabled = false;

  // --- query-sampled classes (per-operation probabilities) ---------------
  double wol_loss_probability = 0.0;     // per WoL send
  double resume_hang_probability = 0.0;  // per S3 resume

  // --- time-scheduled classes (Poisson rates over kFaultHorizon) --------
  // Each rate lies in [0, kMaxFaultsPerHour].
  double host_crash_per_hour = 0.0;
  double memory_server_failure_per_hour = 0.0;
  double migration_abort_per_hour = 0.0;

  // Explicit fault schedule, merged (and time-sorted) with the sampled plan.
  std::vector<ScheduledFault> scheduled;

  Status Validate() const;

  // A representative mix for chaos runs: every live class enabled at rates
  // that keep the cluster functional while firing each class several times
  // per simulated day.
  static FaultConfig ChaosDay();
};

// The pre-sampled, time-sorted schedule of the time-scheduled fault classes.
struct FaultPlan {
  std::vector<ScheduledFault> events;

  // Deterministic: the same (config, seed) always yields the same plan. The
  // plan draws from per-class streams derived from `seed`, so adding a rate
  // for one class never shifts another class's firing times.
  static FaultPlan Build(const FaultConfig& config, uint64_t seed);
};

// The run-time injection engine. One instance per simulated cluster, holding
// the plan, the per-class query streams, and the injected/recovered/skipped
// accounting the chaos tests assert on.
class FaultInjector {
 public:
  // Inert injector (the default-constructed state everywhere).
  FaultInjector();
  // Builds the plan and query streams when config.enabled; inert otherwise.
  FaultInjector(const FaultConfig& config, uint64_t seed);

  bool enabled() const { return config_.enabled; }
  const FaultConfig& config() const { return config_; }
  const FaultPlan& plan() const { return plan_; }

  // --- query-sampled classes ---------------------------------------------
  // Number of consecutive WoL packets lost for this wake (0 = delivered
  // first try; capped at kMaxWolRetries, at which point the caller
  // escalates). Records the injection instant when non-zero.
  int SampleWolLosses(SimTime now, int64_t host);
  // True when this S3 resume wedges and costs the watchdog timeout.
  bool SampleResumeHang(SimTime now, int64_t host);

  // --- recording ----------------------------------------------------------
  // The injection sites call these so counters and the trace stay the single
  // source of truth for the inject/recover pairing tests.
  void RecordInjected(FaultClass fault, SimTime at, obs::TraceArgs args = {});
  void RecordRecovered(FaultClass fault, SimTime start, SimTime end, obs::TraceArgs args = {});
  void RecordSkipped(FaultClass fault, SimTime at, obs::TraceArgs args = {});

  uint64_t injected(FaultClass fault) const { return injected_[static_cast<int>(fault)]; }
  uint64_t recovered(FaultClass fault) const { return recovered_[static_cast<int>(fault)]; }
  uint64_t skipped(FaultClass fault) const { return skipped_[static_cast<int>(fault)]; }
  uint64_t TotalInjected() const;
  uint64_t TotalRecovered() const;

 private:
  Rng& StreamFor(FaultClass fault) { return streams_[static_cast<int>(fault)]; }

  FaultConfig config_;
  FaultPlan plan_;
  std::vector<Rng> streams_;  // one per FaultClass; empty when disabled
  uint64_t injected_[kNumFaultClasses] = {};
  uint64_t recovered_[kNumFaultClasses] = {};
  uint64_t skipped_[kNumFaultClasses] = {};
};

}  // namespace oasis

#endif  // OASIS_SRC_FAULT_FAULT_H_
