#include "src/check/run_scope.h"

#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "src/common/knobs.h"
#include "src/common/log.h"
#include "src/obs/metrics.h"
#include "src/obs/prof.h"
#include "src/obs/trace.h"

namespace oasis {
namespace check {

RunConfig RunConfig::FromEnv() {
  RunConfig config;
  config.check_mode = static_cast<CheckMode>(knobs::Choice(knobs::Knob::kCheck).value_or(0));
  config.obs = obs::ObsConfig::FromEnv();
  return config;
}

RunScope::RunScope(const RunConfig& config) : config_(config) {
  if (config_.CheckingRequested()) {
    checker_ = std::make_unique<InvariantChecker>(config_.check_mode);
    InvariantChecker::Install(checker_.get());
  }
  const obs::ObsConfig& obs = config_.obs;
  if (obs.log_level) {
    SetLogLevel(*obs.log_level);
  }
  if (obs.TracingRequested()) {
    obs::Tracer& tracer = obs::Tracer::Global();
    tracer.SetCapacity(obs.trace_capacity);
    tracer.set_enabled(true);
  }
  if (obs.MetricsRequested()) {
    obs::MetricsRegistry::Global().set_enabled(true);
  }
  prof::Profiler& profiler = prof::Profiler::Instance();
  profiler.SetMode(obs.prof_mode);
  if (obs.ProfilingRequested()) {
    profiler.Reset();
    profiler.LabelCurrentThread("main");
  }
}

RunScope::~RunScope() {
  const obs::ObsConfig& obs = config_.obs;
  // The report is skipped when nothing was recorded since the last
  // Profiler::Collect(reset=true), so perf_sweep, which collects and prints
  // its own report per sweep step, gets no extra one.
  if (obs.ProfilingRequested()) {
    prof::Profiler& profiler = prof::Profiler::Instance();
    prof::Report report = profiler.Collect(/*reset=*/true);
    if (report.HasSamples()) {
      report.WriteTable(std::cerr);
    }
    profiler.SetMode(prof::ProfMode::kOff);
  }
  if (obs.TracingRequested()) {
    obs::Tracer& tracer = obs::Tracer::Global();
    tracer.set_enabled(false);
    Status written = obs.TraceIsJsonl() ? tracer.ExportJsonlFile(obs.trace_path)
                                        : tracer.ExportChromeJsonFile(obs.trace_path);
    if (written.ok()) {
      std::fprintf(stderr, "[obs] %llu trace events (%llu dropped) -> %s\n",
                   static_cast<unsigned long long>(tracer.size()),
                   static_cast<unsigned long long>(tracer.dropped()), obs.trace_path.c_str());
    } else {
      OASIS_LOG(kError) << "trace export failed: " << written.ToString();
    }
  }
  if (obs.MetricsRequested()) {
    obs::MetricsRegistry::Global().set_enabled(false);
    Status written = obs::MetricsRegistry::Global().WriteCsvFile(obs.metrics_path);
    if (written.ok()) {
      std::fprintf(stderr, "[obs] metrics -> %s\n", obs.metrics_path.c_str());
    } else {
      OASIS_LOG(kError) << "metrics export failed: " << written.ToString();
    }
  }
  if (checker_ == nullptr) {
    return;
  }
  InvariantChecker::Install(nullptr);
  uint64_t violations = checker_->ReportToStderr();
  if (config_.check_mode == CheckMode::kStrict && violations > 0) {
    std::exit(kStrictExitCode);
  }
}

}  // namespace check
}  // namespace oasis
