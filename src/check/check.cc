#include "src/check/check.h"

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "src/common/knobs.h"
#include "src/obs/metrics.h"

namespace oasis {
namespace check {
namespace {

std::atomic<InvariantChecker*> g_checker{nullptr};

// One stderr line per violation, fixed key=value shape so CI can grep and
// parse it:   [check] violation invariant=... t_us=... host=... vm=... ...
void WriteViolationLine(const Violation& v) {
  char line[512];
  int n = std::snprintf(line, sizeof(line),
                        "[check] violation invariant=%s t_us=%lld host=%lld vm=%lld "
                        "bytes=%lld detail=\"%s\"\n",
                        v.invariant, static_cast<long long>(v.at.micros()),
                        static_cast<long long>(v.args.host),
                        static_cast<long long>(v.args.vm),
                        static_cast<long long>(v.args.bytes), v.detail.c_str());
  if (n > 0) {
    std::fwrite(line, 1, static_cast<size_t>(n) < sizeof(line) ? static_cast<size_t>(n)
                                                               : sizeof(line) - 1,
                stderr);
  }
}

}  // namespace

const char* CheckModeName(CheckMode mode) {
  switch (mode) {
    case CheckMode::kOff:
      return "off";
    case CheckMode::kWarn:
      return "warn";
    case CheckMode::kStrict:
      return "strict";
  }
  return "?";
}

CheckConfig CheckConfig::FromEnv() {
  CheckConfig config;
  config.mode = static_cast<CheckMode>(knobs::Choice(knobs::Knob::kCheck).value_or(0));
  return config;
}

void InvariantChecker::Report(const char* invariant, SimTime at, std::string detail,
                              obs::TraceArgs args) {
  Violation v{invariant, at, std::move(detail), args};
  WriteViolationLine(v);
  if (obs::Tracer* t = obs::Tracer::IfEnabled()) {
    t->Instant("check", invariant, at, args);
  }
  if (obs::MetricsRegistry* m = obs::MetricsRegistry::IfEnabled()) {
    m->counter("check.violations")->Increment();
  }
  violation_count_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  if (stored_.size() < kMaxStoredViolations) {
    stored_.push_back(std::move(v));
  }
}

std::vector<Violation> InvariantChecker::violations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stored_;
}

uint64_t InvariantChecker::ReportToStderr() const {
  uint64_t count = violation_count();
  if (count == 0) {
    std::fprintf(stderr, "[check] invariant checker (%s): %llu checks, 0 violations\n",
                 CheckModeName(mode_), static_cast<unsigned long long>(checks_run()));
    return 0;
  }
  std::fprintf(stderr,
               "[check] invariant checker (%s): %llu checks, %llu VIOLATIONS\n",
               CheckModeName(mode_), static_cast<unsigned long long>(checks_run()),
               static_cast<unsigned long long>(count));
  std::vector<Violation> stored = violations();
  for (const Violation& v : stored) {
    WriteViolationLine(v);
  }
  if (count > stored.size()) {
    std::fprintf(stderr, "[check] ... %llu further violations not stored\n",
                 static_cast<unsigned long long>(count - stored.size()));
  }
  return count;
}

InvariantChecker* InvariantChecker::IfEnabled() {
  return g_checker.load(std::memory_order_relaxed);
}

void InvariantChecker::Install(InvariantChecker* checker) {
  g_checker.store(checker, std::memory_order_release);
}

CheckScope::CheckScope(const CheckConfig& config) : config_(config) {
  if (config_.Enabled()) {
    checker_ = std::make_unique<InvariantChecker>(config_.mode);
    InvariantChecker::Install(checker_.get());
  }
}

bool CheckScope::Finish() {
  if (finished_ || checker_ == nullptr) {
    return false;
  }
  finished_ = true;
  InvariantChecker::Install(nullptr);
  uint64_t count = checker_->ReportToStderr();
  return config_.mode == CheckMode::kStrict && count > 0;
}

CheckScope::~CheckScope() {
  if (Finish()) {
    // Deferred strict exit: collectors declared after this scope (ObsScope)
    // have already flushed, and sibling experiment runs finished normally.
    std::exit(kStrictExitCode);
  }
}

}  // namespace check
}  // namespace oasis
