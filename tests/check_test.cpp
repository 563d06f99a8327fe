// The invariant checker itself: OASIS_CHECK spellings, recording semantics,
// the process-wide install gate, the power-state transition legality hook,
// and the RunScope's strict-mode exit contract (a seeded violation must turn
// into a non-zero process exit with a structured stderr report, after the
// trace and metrics files are written — the acceptance test for the whole
// subsystem).

#include "src/check/check.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "src/check/run_scope.h"
#include "src/obs/prof.h"
#include "src/power/energy_meter.h"

namespace oasis {
namespace {

using check::CheckMode;
using check::InvariantChecker;
using check::RunConfig;
using check::RunScope;
using check::Violation;

RunConfig ParseEnv(const char* value) {
  if (value == nullptr) {
    unsetenv("OASIS_CHECK");
  } else {
    setenv("OASIS_CHECK", value, 1);
  }
  RunConfig config = RunConfig::FromEnv();
  unsetenv("OASIS_CHECK");
  return config;
}

// A scope that checks in `mode` and enables no collector.
RunConfig CheckOnly(CheckMode mode) {
  RunConfig config;
  config.check_mode = mode;
  return config;
}

TEST(RunConfigTest, FromEnvParsesEveryCheckSpelling) {
  EXPECT_EQ(ParseEnv(nullptr).check_mode, CheckMode::kOff);
  EXPECT_EQ(ParseEnv("").check_mode, CheckMode::kOff);
  EXPECT_EQ(ParseEnv("0").check_mode, CheckMode::kOff);
  EXPECT_EQ(ParseEnv("off").check_mode, CheckMode::kOff);
  EXPECT_EQ(ParseEnv("1").check_mode, CheckMode::kWarn);
  EXPECT_EQ(ParseEnv("on").check_mode, CheckMode::kWarn);
  EXPECT_EQ(ParseEnv("warn").check_mode, CheckMode::kWarn);
  EXPECT_EQ(ParseEnv("2").check_mode, CheckMode::kStrict);
  EXPECT_EQ(ParseEnv("strict").check_mode, CheckMode::kStrict);
  EXPECT_FALSE(ParseEnv("off").CheckingRequested());
  EXPECT_TRUE(ParseEnv("warn").CheckingRequested());
  EXPECT_TRUE(ParseEnv("strict").CheckingRequested());
}

TEST(InvariantCheckerTest, ExpectCountsAndReportsOnlyFailures) {
  InvariantChecker checker(CheckMode::kWarn);
  checker.Expect(true, "test.passing", SimTime::Seconds(1), [] { return "unused"; });
  EXPECT_EQ(checker.checks_run(), 1u);
  EXPECT_EQ(checker.violation_count(), 0u);

  checker.Expect(false, "test.failing", SimTime::Seconds(2),
                 [] { return "two is not three"; }, obs::TraceArgs{7, 9, 4096});
  checker.CountChecks(10);
  EXPECT_EQ(checker.checks_run(), 12u);
  EXPECT_EQ(checker.violation_count(), 1u);

  std::vector<Violation> stored = checker.violations();
  ASSERT_EQ(stored.size(), 1u);
  EXPECT_STREQ(stored[0].invariant, "test.failing");
  EXPECT_EQ(stored[0].at, SimTime::Seconds(2));
  EXPECT_EQ(stored[0].detail, "two is not three");
  EXPECT_EQ(stored[0].args.host, 7);
  EXPECT_EQ(stored[0].args.vm, 9);
  EXPECT_EQ(stored[0].args.bytes, 4096);
}

TEST(InvariantCheckerTest, StoredViolationsCapButCountStaysExact) {
  InvariantChecker checker(CheckMode::kWarn);
  const uint64_t reported = InvariantChecker::kMaxStoredViolations + 40;
  for (uint64_t i = 0; i < reported; ++i) {
    checker.Report("test.flood", SimTime::Micros(static_cast<int64_t>(i)), "flood");
  }
  EXPECT_EQ(checker.violation_count(), reported);
  EXPECT_EQ(checker.violations().size(), InvariantChecker::kMaxStoredViolations);
  EXPECT_EQ(checker.ReportToStderr(), reported);
}

TEST(InvariantCheckerTest, InstallGatesTheHotPath) {
  EXPECT_EQ(InvariantChecker::IfEnabled(), nullptr);
  InvariantChecker checker(CheckMode::kWarn);
  InvariantChecker::Install(&checker);
  EXPECT_EQ(InvariantChecker::IfEnabled(), &checker);
  InvariantChecker::Install(nullptr);
  EXPECT_EQ(InvariantChecker::IfEnabled(), nullptr);
}

TEST(RunScopeTest, OffScopeInstallsNothing) {
  ::testing::internal::CaptureStderr();
  {
    RunScope scope(CheckOnly(CheckMode::kOff));
    EXPECT_EQ(InvariantChecker::IfEnabled(), nullptr);
  }
  // Closing an off scope prints no summary and does not exit the process
  // (this test keeps running).
  EXPECT_EQ(::testing::internal::GetCapturedStderr().find("[check]"), std::string::npos);
}

TEST(RunScopeTest, WarnScopeRecordsWithoutChangingExitStatus) {
  ::testing::internal::CaptureStderr();
  InvariantChecker* checker = nullptr;
  {
    RunScope scope(CheckOnly(CheckMode::kWarn));
    checker = InvariantChecker::IfEnabled();
    if (checker != nullptr) {
      checker->Report("test.warn_mode", SimTime::Seconds(5), "recorded only");
    }
  }
  // Warn mode: closing the scope uninstalls the checker and reports once,
  // but the strict contract is not violated, so it does not exit the
  // process (this test keeps running).
  std::string err = ::testing::internal::GetCapturedStderr();
  ASSERT_NE(checker, nullptr);
  EXPECT_EQ(InvariantChecker::IfEnabled(), nullptr);
  const std::string summary = "[check] invariant checker (warn): 0 checks, 1 VIOLATIONS";
  size_t first = err.find(summary);
  ASSERT_NE(first, std::string::npos) << err;
  EXPECT_EQ(err.find(summary, first + 1), std::string::npos) << "summary printed twice";
}

// The power-state machine hook: StateTimeLedger::Transition must flag
// transitions the hardware cannot perform. kPowered -> kResuming (resuming a
// host that never slept) is the canonical illegal edge.
TEST(PowerTransitionCheckTest, IllegalTransitionIsReported) {
  InvariantChecker checker(CheckMode::kWarn);
  InvariantChecker::Install(&checker);
  StateTimeLedger ledger(SimTime::Zero(), HostPowerState::kPowered);
  ledger.Transition(SimTime::Seconds(10), HostPowerState::kResuming);
  InvariantChecker::Install(nullptr);

  ASSERT_EQ(checker.violation_count(), 1u);
  EXPECT_STREQ(checker.violations()[0].invariant, "power.legal_transition");
}

TEST(PowerTransitionCheckTest, FullSuspendResumeCycleIsLegal) {
  InvariantChecker checker(CheckMode::kWarn);
  InvariantChecker::Install(&checker);
  StateTimeLedger ledger(SimTime::Zero(), HostPowerState::kPowered);
  ledger.Transition(SimTime::Hours(1), HostPowerState::kSuspending);
  ledger.Transition(SimTime::Hours(1) + SimTime::Seconds(3.1), HostPowerState::kSleeping);
  ledger.Transition(SimTime::Hours(2), HostPowerState::kResuming);
  ledger.Transition(SimTime::Hours(2) + SimTime::Seconds(2.3), HostPowerState::kPowered);
  // A crash cuts power from any state without passing through suspend.
  ledger.Transition(SimTime::Hours(3), HostPowerState::kSleeping);
  InvariantChecker::Install(nullptr);

  EXPECT_EQ(checker.violation_count(), 0u);
  EXPECT_GT(checker.checks_run(), 0u);
}

// The acceptance test for strict mode: an intentionally seeded violation
// must exit the process with kStrictExitCode and print the structured
// violation line plus the VIOLATIONS summary.
TEST(RunScopeDeathTest, StrictScopeExitsNonZeroOnSeededViolation) {
  EXPECT_EXIT(
      {
        RunScope scope(CheckOnly(CheckMode::kStrict));
        StateTimeLedger ledger(SimTime::Zero(), HostPowerState::kPowered);
        ledger.Transition(SimTime::Seconds(1), HostPowerState::kResuming);
        // Scope destruction reports and exits with status 2.
      },
      ::testing::ExitedWithCode(check::kStrictExitCode),
      "violation invariant=power\\.legal_transition");
}

TEST(RunScopeDeathTest, StrictScopeWithNoViolationsExitsNormally) {
  EXPECT_EXIT(
      {
        {
          RunScope scope(CheckOnly(CheckMode::kStrict));
          StateTimeLedger ledger(SimTime::Zero(), HostPowerState::kPowered);
          ledger.Transition(SimTime::Seconds(1), HostPowerState::kSuspending);
        }
        std::exit(0);
      },
      ::testing::ExitedWithCode(0), "0 violations");
}

// The scope's exit order: a strict run that recorded a violation prints the
// profile report, writes the trace and the metrics (each holding the
// violation), and only then prints the checker summary and exits 2, so a
// failing run still leaves its evidence behind.
TEST(RunScopeDeathTest, StrictExitComesAfterTheTraceAndMetricsExports) {
  const std::string trace = ::testing::TempDir() + "/oasis_run_scope.trace.jsonl";
  const std::string metrics = ::testing::TempDir() + "/oasis_run_scope.metrics.csv";
  std::remove(trace.c_str());
  std::remove(metrics.c_str());
  EXPECT_EXIT(
      {
        setenv("OASIS_CHECK", "strict", 1);
        setenv("OASIS_TRACE", trace.c_str(), 1);
        setenv("OASIS_METRICS", metrics.c_str(), 1);
        setenv("OASIS_PROF", "summary", 1);
        RunScope scope;
        { prof::ProfScope span(prof::Phase::kRunSim); }
        StateTimeLedger ledger(SimTime::Zero(), HostPowerState::kPowered);
        ledger.Transition(SimTime::Seconds(1), HostPowerState::kResuming);
      },
      ::testing::ExitedWithCode(check::kStrictExitCode),
      "\\[prof\\] wall-clock profile.*"
      "\\[obs\\] [0-9]+ trace events \\(0 dropped\\) -> [^\n]*\\.jsonl\n.*"
      "\\[obs\\] metrics -> [^\n]*\\.csv\n.*"
      "\\[check\\] invariant checker \\(strict\\): [0-9]+ checks, 1 VIOLATIONS");

  std::ifstream trace_in(trace);
  ASSERT_TRUE(trace_in.good()) << trace;
  bool check_instant = false;
  for (std::string line; std::getline(trace_in, line);) {
    check_instant |= line.find("\"cat\":\"check\",\"name\":\"power.legal_transition\"") !=
                     std::string::npos;
  }
  EXPECT_TRUE(check_instant) << "no check instant in " << trace;

  std::ifstream metrics_in(metrics);
  ASSERT_TRUE(metrics_in.good()) << metrics;
  bool violations_row = false;
  for (std::string line; std::getline(metrics_in, line);) {
    violations_row |= line.rfind("check.violations,", 0) == 0;
  }
  EXPECT_TRUE(violations_row) << "no check.violations row in " << metrics;
  std::remove(trace.c_str());
  std::remove(metrics.c_str());
}

}  // namespace
}  // namespace oasis
