// The invariant checker itself: OASIS_CHECK spellings, recording semantics,
// the process-wide install gate, the power-state transition legality hook,
// and the strict-mode exit contract (a seeded violation must turn into a
// non-zero process exit with a structured stderr report — the acceptance
// test for the whole subsystem).

#include "src/check/check.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "src/power/energy_meter.h"

namespace oasis {
namespace {

using check::CheckConfig;
using check::CheckMode;
using check::CheckScope;
using check::InvariantChecker;
using check::Violation;

CheckConfig ParseEnv(const char* value) {
  if (value == nullptr) {
    unsetenv("OASIS_CHECK");
  } else {
    setenv("OASIS_CHECK", value, 1);
  }
  CheckConfig config = CheckConfig::FromEnv();
  unsetenv("OASIS_CHECK");
  return config;
}

TEST(CheckConfigTest, FromEnvParsesEverySpelling) {
  EXPECT_EQ(ParseEnv(nullptr).mode, CheckMode::kOff);
  EXPECT_EQ(ParseEnv("").mode, CheckMode::kOff);
  EXPECT_EQ(ParseEnv("0").mode, CheckMode::kOff);
  EXPECT_EQ(ParseEnv("off").mode, CheckMode::kOff);
  EXPECT_EQ(ParseEnv("1").mode, CheckMode::kWarn);
  EXPECT_EQ(ParseEnv("on").mode, CheckMode::kWarn);
  EXPECT_EQ(ParseEnv("warn").mode, CheckMode::kWarn);
  EXPECT_EQ(ParseEnv("2").mode, CheckMode::kStrict);
  EXPECT_EQ(ParseEnv("strict").mode, CheckMode::kStrict);
  EXPECT_FALSE(ParseEnv("off").Enabled());
  EXPECT_TRUE(ParseEnv("warn").Enabled());
  EXPECT_TRUE(ParseEnv("strict").Enabled());
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

TEST(CheckScopeTest, OffScopeInstallsNothing) {
  CheckScope scope(CheckConfig{CheckMode::kOff});
  EXPECT_EQ(scope.checker(), nullptr);
  EXPECT_EQ(InvariantChecker::IfEnabled(), nullptr);
  EXPECT_FALSE(scope.Finish());
}

TEST(CheckScopeTest, WarnScopeRecordsWithoutChangingExitStatus) {
  CheckScope scope(CheckConfig{CheckMode::kWarn});
  ASSERT_NE(scope.checker(), nullptr);
  EXPECT_EQ(InvariantChecker::IfEnabled(), scope.checker());
  scope.checker()->Report("test.warn_mode", SimTime::Seconds(5), "recorded only");
  // Warn mode: Finish reports but the strict contract is not violated, so
  // the destructor will not exit the process (this test keeps running).
  EXPECT_FALSE(scope.Finish());
  EXPECT_EQ(InvariantChecker::IfEnabled(), nullptr);
  EXPECT_FALSE(scope.Finish());  // idempotent
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
TEST(CheckScopeDeathTest, StrictScopeExitsNonZeroOnSeededViolation) {
  EXPECT_EXIT(
      {
        CheckScope scope(CheckConfig{CheckMode::kStrict});
        StateTimeLedger ledger(SimTime::Zero(), HostPowerState::kPowered);
        ledger.Transition(SimTime::Seconds(1), HostPowerState::kResuming);
        // Scope destruction reports and exits with status 2.
      },
      ::testing::ExitedWithCode(check::kStrictExitCode),
      "violation invariant=power\\.legal_transition");
}

TEST(CheckScopeDeathTest, StrictScopeWithNoViolationsExitsNormally) {
  EXPECT_EXIT(
      {
        CheckScope scope(CheckConfig{CheckMode::kStrict});
        StateTimeLedger ledger(SimTime::Zero(), HostPowerState::kPowered);
        ledger.Transition(SimTime::Seconds(1), HostPowerState::kSuspending);
        scope.Finish();
        std::exit(0);
      },
      ::testing::ExitedWithCode(0), "0 violations");
}

}  // namespace
}  // namespace oasis
