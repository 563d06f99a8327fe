// Opt-in runtime invariant checking.
//
// The simulator's credibility rests on conservation laws — no VM lost or
// duplicated across hosts, bytes balanced across migrations, the energy
// ledger equal to the piecewise integral of the power model — yet nothing in
// a passing unit-test run proves they hold mid-simulation under chaos or
// concurrency. InvariantChecker is the collection point: instrumentation
// sites across sim/, power/, hyper/ and cluster/ gate on IfEnabled() (one
// relaxed atomic load, mirroring obs::Tracer) and report violations with the
// simulated timestamp and structured args. CheckScope wires the checker to
// the environment for a binary's main, exactly like obs::ObsScope:
//
//     OASIS_CHECK=strict ./build/bench/fig08_energy_savings
//
// runs the full day with every invariant asserted and exits non-zero (with a
// structured stderr report) if any fired.
//
// OASIS_CHECK (a row of src/common/knobs.h) picks the mode: off (default)
// costs one predictable branch per hook and no RNG draws; warn records and
// reports violations; strict also exits with status 2 once the scope closes
// if any violation was recorded.
//
// Violations are triple-reported: a structured stderr line at record time,
// an obs instant event (category "check") plus "check.violations" counter
// when those collectors are enabled, and the end-of-scope summary. The
// checker never writes to stdout, so golden-file comparisons hold with the
// checker on. It is thread-safe: parallel experiment runs share the global
// checker, and a violation in one run neither stops nor perturbs siblings.

#ifndef OASIS_SRC_CHECK_CHECK_H_
#define OASIS_SRC_CHECK_CHECK_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/units.h"
#include "src/obs/trace.h"

namespace oasis {
namespace check {

enum class CheckMode {
  kOff,
  kWarn,    // record and report, but do not affect the exit status
  kStrict,  // non-zero process exit if any violation was recorded
};

const char* CheckModeName(CheckMode mode);

// Exit status a strict CheckScope uses when violations were recorded.
inline constexpr int kStrictExitCode = 2;

struct CheckConfig {
  CheckMode mode = CheckMode::kOff;

  bool Enabled() const { return mode != CheckMode::kOff; }

  // Reads OASIS_CHECK; CheckMode's order is the row's choice order. An
  // unknown value exits 2 (knobs::Reject): a mistyped strict gate must not
  // run in warn mode and pass whatever violations occur.
  static CheckConfig FromEnv();
};

// One recorded invariant failure. `invariant` is a stable dotted identifier
// (e.g. "cluster.vm_unique_location"); it must be a string literal — events
// forwarded to the tracer store the pointer, not a copy.
struct Violation {
  const char* invariant = "";
  SimTime at;              // simulated time the check ran
  std::string detail;      // human-readable specifics
  obs::TraceArgs args;     // structured host/vm/bytes payload
};

class InvariantChecker {
 public:
  explicit InvariantChecker(CheckMode mode) : mode_(mode) {}
  InvariantChecker(const InvariantChecker&) = delete;
  InvariantChecker& operator=(const InvariantChecker&) = delete;

  CheckMode mode() const { return mode_; }

  // Records one violation: stores it (up to kMaxStoredViolations; the count
  // is always exact), writes one structured stderr line, and emits an obs
  // instant + counter when those collectors are enabled. Thread-safe.
  void Report(const char* invariant, SimTime at, std::string detail,
              obs::TraceArgs args = {});

  // The bulk-accounting entry point for instrumentation sites: counts
  // `checks` executed assertions and reports when `ok` is false. Hot paths
  // that run per event skip the counting overload and call Report directly
  // on failure.
  template <typename DetailFn>
  void Expect(bool ok, const char* invariant, SimTime at, DetailFn&& detail,
              obs::TraceArgs args = {}) {
    checks_run_.fetch_add(1, std::memory_order_relaxed);
    if (!ok) {
      Report(invariant, at, detail(), args);
    }
  }
  void CountChecks(uint64_t checks) {
    checks_run_.fetch_add(checks, std::memory_order_relaxed);
  }

  uint64_t checks_run() const { return checks_run_.load(std::memory_order_relaxed); }
  uint64_t violation_count() const {
    return violation_count_.load(std::memory_order_relaxed);
  }
  std::vector<Violation> violations() const;

  // Writes the end-of-run summary (one line per stored violation plus a
  // checks/violations tally) to stderr. Returns the violation count.
  uint64_t ReportToStderr() const;

  // --- process-wide wiring -------------------------------------------------
  // The installed checker, nullptr when checking is disabled — the hot-path
  // gate at every instrumentation site:
  //   if (check::InvariantChecker* c = check::InvariantChecker::IfEnabled()) ...
  static InvariantChecker* IfEnabled();
  // Installs `checker` as the process-wide instance (nullptr uninstalls).
  static void Install(InvariantChecker* checker);

  // Stored-violation cap: the count stays exact past it, but a pathological
  // run cannot grow the report without bound.
  static constexpr size_t kMaxStoredViolations = 256;

 private:
  const CheckMode mode_;
  std::atomic<uint64_t> checks_run_{0};
  std::atomic<uint64_t> violation_count_{0};
  mutable std::mutex mu_;
  std::vector<Violation> stored_;
};

// RAII: installs an InvariantChecker per CheckConfig::FromEnv() for the
// duration of a binary's main. On destruction it uninstalls, prints the
// summary, and — in strict mode with violations recorded — exits the process
// with kStrictExitCode. Declare it *before* ObsScope so traces and metrics
// flush before a strict exit:
//
//     int main() {
//       oasis::check::CheckScope check_scope;  // OASIS_CHECK
//       oasis::obs::ObsScope obs_scope;        // OASIS_TRACE / OASIS_METRICS
//       ...
//     }
class CheckScope {
 public:
  explicit CheckScope(const CheckConfig& config = CheckConfig::FromEnv());
  ~CheckScope();
  CheckScope(const CheckScope&) = delete;
  CheckScope& operator=(const CheckScope&) = delete;

  // Uninstalls the checker and prints the summary now (idempotent). Returns
  // true when the strict contract is violated (strict mode + violations);
  // the destructor turns that into a process exit.
  bool Finish();

  const CheckConfig& config() const { return config_; }
  // nullptr when the scope is disabled (OASIS_CHECK unset/off).
  InvariantChecker* checker() { return checker_.get(); }

 private:
  CheckConfig config_;
  std::unique_ptr<InvariantChecker> checker_;
  bool finished_ = false;
};

}  // namespace check
}  // namespace oasis

#endif  // OASIS_SRC_CHECK_CHECK_H_
