#include "src/fault/fault.h"

#include <algorithm>
#include <string>

#include "src/common/log.h"
#include "src/obs/metrics.h"

namespace oasis {
namespace {

// Tracer names must be string literals (they outlive the call), so the
// class-indexed tables below replace string concatenation on the hot path.
constexpr const char* kClassNames[kNumFaultClasses] = {
    "host_crash", "wol_loss",        "rpc_drop",   "rpc_delay",
    "ms_failure", "migration_abort", "resume_hang"};

constexpr const char* kInjectNames[kNumFaultClasses] = {
    "inject.host_crash", "inject.wol_loss",        "inject.rpc_drop",
    "inject.rpc_delay",  "inject.ms_failure",      "inject.migration_abort",
    "inject.resume_hang"};

constexpr const char* kRecoverNames[kNumFaultClasses] = {
    "recover.host_crash", "recover.wol_loss",        "recover.rpc_drop",
    "recover.rpc_delay",  "recover.ms_failure",      "recover.migration_abort",
    "recover.resume_hang"};

// Distinct stream salts per class: the plan streams sample firing times, the
// query streams drive per-operation Bernoulli draws. Deriving both from the
// run seed with golden-ratio multiples keeps classes decorrelated while the
// whole schedule stays a pure function of (config, seed).
uint64_t PlanSalt(int c) { return 0x9E3779B97F4A7C15ull * static_cast<uint64_t>(c + 1); }
uint64_t QuerySalt(int c) { return 0xC2B2AE3D27D4EB4Full * static_cast<uint64_t>(c + 1); }

void SamplePoisson(FaultClass fault, double per_hour, uint64_t seed,
                   std::vector<ScheduledFault>& out) {
  if (per_hour <= 0.0) {
    return;
  }
  Rng rng(seed ^ PlanSalt(static_cast<int>(fault)));
  double mean_hours = 1.0 / per_hour;
  SimTime t = SimTime::Hours(rng.NextExponential(mean_hours));
  while (t <= kFaultHorizon) {
    out.push_back({t, fault, -1});
    t += SimTime::Hours(rng.NextExponential(mean_hours));
  }
}

void BumpCounter(const char* kind, FaultClass fault) {
  if (obs::MetricsRegistry* m = obs::MetricsRegistry::IfEnabled()) {
    m->counter(std::string("fault.") + kind + "." + kClassNames[static_cast<int>(fault)])
        ->Increment();
  }
}

}  // namespace

const char* FaultClassName(FaultClass fault) { return kClassNames[static_cast<int>(fault)]; }

Status FaultConfig::Validate() const {
  // Written so that NaN fails each range test.
  for (double p : {wol_loss_probability, resume_hang_probability}) {
    if (!(p >= 0.0 && p <= 1.0)) {
      return Status::InvalidArgument("fault probability outside [0,1]");
    }
  }
  for (double r : {host_crash_per_hour, memory_server_failure_per_hour, migration_abort_per_hour}) {
    if (!(r >= 0.0 && r <= kMaxFaultsPerHour)) {
      return Status::InvalidArgument("fault rate outside [0, " +
                                     std::to_string(static_cast<int>(kMaxFaultsPerHour)) +
                                     "] per hour");
    }
  }
  return Status::Ok();
}

FaultConfig FaultConfig::ChaosDay() {
  FaultConfig config;
  config.enabled = true;
  config.wol_loss_probability = 0.10;
  config.resume_hang_probability = 0.05;
  config.host_crash_per_hour = 0.25;
  config.memory_server_failure_per_hour = 0.5;
  config.migration_abort_per_hour = 1.0;
  return config;
}

FaultPlan FaultPlan::Build(const FaultConfig& config, uint64_t seed) {
  FaultPlan plan;
  if (!config.enabled) {
    return plan;
  }
  SamplePoisson(FaultClass::kHostCrash, config.host_crash_per_hour, seed, plan.events);
  SamplePoisson(FaultClass::kMemoryServerFailure, config.memory_server_failure_per_hour, seed,
                plan.events);
  SamplePoisson(FaultClass::kMigrationAbort, config.migration_abort_per_hour, seed, plan.events);
  for (const ScheduledFault& f : config.scheduled) {
    plan.events.push_back(f);
  }
  std::sort(plan.events.begin(), plan.events.end(),
            [](const ScheduledFault& a, const ScheduledFault& b) {
              if (a.at != b.at) {
                return a.at < b.at;
              }
              if (a.fault != b.fault) {
                return a.fault < b.fault;
              }
              return a.target < b.target;
            });
  return plan;
}

FaultInjector::FaultInjector() = default;

FaultInjector::FaultInjector(const FaultConfig& config, uint64_t seed) : config_(config) {
  if (!config_.enabled) {
    return;
  }
  Status valid = config_.Validate();
  if (!valid.ok()) {
    OASIS_LOG(kError) << "invalid fault config: " << valid.ToString()
                      << "; fault injection disabled";
    config_.enabled = false;
    return;
  }
  plan_ = FaultPlan::Build(config_, seed);
  streams_.reserve(kNumFaultClasses);
  for (int c = 0; c < kNumFaultClasses; ++c) {
    streams_.emplace_back(seed ^ QuerySalt(c));
  }
}

int FaultInjector::SampleWolLosses(SimTime now, int64_t host) {
  // Early-out before touching the stream: a disabled (or zero-probability)
  // injector must not consume draws, or enabling the subsystem with zero
  // rates would already perturb downstream randomness.
  if (!enabled() || config_.wol_loss_probability <= 0.0) {
    return 0;
  }
  Rng& rng = StreamFor(FaultClass::kWolLoss);
  int losses = 0;
  while (losses < kMaxWolRetries && rng.NextBool(config_.wol_loss_probability)) {
    ++losses;
  }
  if (losses > 0) {
    RecordInjected(FaultClass::kWolLoss, now, obs::TraceArgs{host, -1, losses});
  }
  return losses;
}

bool FaultInjector::SampleResumeHang(SimTime now, int64_t host) {
  if (!enabled() || config_.resume_hang_probability <= 0.0) {
    return false;
  }
  if (!StreamFor(FaultClass::kResumeHang).NextBool(config_.resume_hang_probability)) {
    return false;
  }
  RecordInjected(FaultClass::kResumeHang, now, obs::TraceArgs{host});
  return true;
}

void FaultInjector::RecordInjected(FaultClass fault, SimTime at, obs::TraceArgs args) {
  ++injected_[static_cast<int>(fault)];
  OASIS_CLOG(kInfo, "fault") << "inject " << FaultClassName(fault) << " host=" << args.host
                             << " vm=" << args.vm;
  if (obs::Tracer* t = obs::Tracer::IfEnabled()) {
    t->Instant("fault", kInjectNames[static_cast<int>(fault)], at, args);
  }
  BumpCounter("injected", fault);
}

void FaultInjector::RecordRecovered(FaultClass fault, SimTime start, SimTime end,
                                    obs::TraceArgs args) {
  ++recovered_[static_cast<int>(fault)];
  if (obs::Tracer* t = obs::Tracer::IfEnabled()) {
    t->Complete("fault", kRecoverNames[static_cast<int>(fault)], start, end, args);
  }
  BumpCounter("recovered", fault);
}

void FaultInjector::RecordSkipped(FaultClass fault, SimTime at, obs::TraceArgs args) {
  ++skipped_[static_cast<int>(fault)];
  OASIS_CLOG(kDebug, "fault") << "skip " << FaultClassName(fault) << " (no eligible target)";
  if (obs::Tracer* t = obs::Tracer::IfEnabled()) {
    t->Instant("fault", "skipped", at, args);
  }
  BumpCounter("skipped", fault);
}

uint64_t FaultInjector::TotalInjected() const {
  uint64_t n = 0;
  for (uint64_t c : injected_) {
    n += c;
  }
  return n;
}

uint64_t FaultInjector::TotalRecovered() const {
  uint64_t n = 0;
  for (uint64_t c : recovered_) {
    n += c;
  }
  return n;
}

}  // namespace oasis
