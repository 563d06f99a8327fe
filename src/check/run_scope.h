// One scope per binary: the invariant checker and the observability
// collectors, opened and closed by a single owner.
//
// Every bench/ and examples/ main declares one RunScope first thing:
//
//     int main() {
//       oasis::check::RunScope run_scope;
//       ...
//     }
//
// so that
//
//     OASIS_CHECK=strict OASIS_TRACE=trace.json ./build/bench/fig08_energy_savings
//     OASIS_PROF=summary ./build/bench/table1_power_profiles
//
// assert every invariant, emit a Perfetto-loadable trace or print a profile
// report with zero further plumbing. The scope reads OASIS_CHECK plus the
// rows obs::ObsConfig reads (OASIS_TRACE, OASIS_METRICS,
// OASIS_TRACE_CAPACITY, OASIS_LOG_LEVEL, OASIS_SEED, OASIS_PROF), all rows
// of the table in src/common/knobs.h. It installs the checker before the
// collectors, and on the way out it
//
//   1. prints the [prof] report (when the run recorded a profiled phase);
//   2. exports the trace and the metrics;
//   3. uninstalls the checker and prints the [check] summary;
//   4. exits with kStrictExitCode if a strict run recorded a violation.
//
// Step 4 comes last so a failing strict run still leaves its trace and
// metrics files behind, each holding the violations it recorded.

#ifndef OASIS_SRC_CHECK_RUN_SCOPE_H_
#define OASIS_SRC_CHECK_RUN_SCOPE_H_

#include <memory>

#include "src/check/check.h"
#include "src/obs/obs.h"

namespace oasis {
namespace check {

struct RunConfig {
  CheckMode check_mode = CheckMode::kOff;
  obs::ObsConfig obs;

  bool CheckingRequested() const { return check_mode != CheckMode::kOff; }

  // Reads OASIS_CHECK, then every row obs::ObsConfig::FromEnv reads.
  // CheckMode's order is the OASIS_CHECK row's choice order. An unknown
  // value exits 2 (knobs::Reject): a mistyped strict gate must not run in
  // warn mode and pass whatever violations occur.
  static RunConfig FromEnv();
};

// RAII: installs the checker and enables the requested collectors and the
// profiler on construction; reports, exports and uninstalls them on
// destruction, in the order the header comment lists.
class RunScope {
 public:
  explicit RunScope(const RunConfig& config = RunConfig::FromEnv());
  ~RunScope();
  RunScope(const RunScope&) = delete;
  RunScope& operator=(const RunScope&) = delete;

  const RunConfig& config() const { return config_; }

 private:
  RunConfig config_;
  std::unique_ptr<InvariantChecker> checker_;  // nullptr when checking is off
};

}  // namespace check
}  // namespace oasis

#endif  // OASIS_SRC_CHECK_RUN_SCOPE_H_
