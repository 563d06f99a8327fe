// Unit tests for the deterministic fault-injection subsystem: plan
// determinism, per-class stream independence, config validation, and the
// zero-overhead guarantee of the disabled (default) injector.

#include <gtest/gtest.h>

#include <limits>

#include "src/fault/fault.h"

namespace oasis {
namespace {

FaultConfig RatesOnly() {
  FaultConfig config;
  config.enabled = true;
  config.host_crash_per_hour = 0.5;
  config.memory_server_failure_per_hour = 1.0;
  config.migration_abort_per_hour = 2.0;
  return config;
}

TEST(FaultPlanTest, SameSeedSamePlan) {
  FaultConfig config = RatesOnly();
  FaultPlan a = FaultPlan::Build(config, 42);
  FaultPlan b = FaultPlan::Build(config, 42);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i], b.events[i]) << "event " << i;
  }
  EXPECT_GT(a.events.size(), 0u);
}

TEST(FaultPlanTest, DifferentSeedDifferentPlan) {
  FaultConfig config = RatesOnly();
  FaultPlan a = FaultPlan::Build(config, 42);
  FaultPlan b = FaultPlan::Build(config, 43);
  EXPECT_NE(a.events, b.events);
}

TEST(FaultPlanTest, ClassStreamsAreIndependent) {
  // Adding a rate for one class must not shift another class's firing
  // times — each class samples from its own salted stream.
  FaultConfig crash_only;
  crash_only.enabled = true;
  crash_only.host_crash_per_hour = 0.5;
  FaultConfig both = crash_only;
  both.memory_server_failure_per_hour = 2.0;

  auto crashes_of = [](const FaultPlan& plan) {
    std::vector<ScheduledFault> out;
    for (const ScheduledFault& e : plan.events) {
      if (e.fault == FaultClass::kHostCrash) {
        out.push_back(e);
      }
    }
    return out;
  };
  EXPECT_EQ(crashes_of(FaultPlan::Build(crash_only, 7)),
            crashes_of(FaultPlan::Build(both, 7)));
}

TEST(FaultPlanTest, PlanIsTimeSortedAndBounded) {
  FaultPlan plan = FaultPlan::Build(RatesOnly(), 1);
  for (size_t i = 0; i < plan.events.size(); ++i) {
    EXPECT_LE(plan.events[i].at, kFaultHorizon);
    if (i > 0) {
      EXPECT_LE(plan.events[i - 1].at, plan.events[i].at);
    }
  }
}

TEST(FaultPlanTest, ExplicitScheduleMergesIntoSampledPlan) {
  FaultConfig config = RatesOnly();
  ScheduledFault explicit_crash{SimTime::Hours(3.0), FaultClass::kHostCrash, 31};
  config.scheduled.push_back(explicit_crash);
  FaultPlan plan = FaultPlan::Build(config, 42);
  bool found = false;
  for (const ScheduledFault& e : plan.events) {
    found = found || e == explicit_crash;
  }
  EXPECT_TRUE(found);
}

TEST(FaultConfigTest, ValidateRejectsBadValues) {
  FaultConfig config;
  config.enabled = true;
  config.wol_loss_probability = 1.5;
  EXPECT_FALSE(config.Validate().ok());
  config.wol_loss_probability = 0.1;
  config.host_crash_per_hour = -1.0;
  EXPECT_FALSE(config.Validate().ok());
  config.host_crash_per_hour = 0.0;
  EXPECT_TRUE(config.Validate().ok());
}

// An infinite rate would give the Poisson sampler a zero mean gap and an
// endless plan; NaN would reach SimTime::Hours. Validate alone is called
// here: no plan is ever built from these configs.
TEST(FaultConfigTest, ValidateRejectsNonFiniteAndUnboundedValues) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (double bad : {inf, nan, -inf, kMaxFaultsPerHour * 2.0}) {
    for (double FaultConfig::*rate :
         {&FaultConfig::host_crash_per_hour, &FaultConfig::memory_server_failure_per_hour,
          &FaultConfig::migration_abort_per_hour}) {
      FaultConfig config;
      config.enabled = true;
      config.*rate = bad;
      EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument) << bad;
      config.*rate = kMaxFaultsPerHour;
      EXPECT_TRUE(config.Validate().ok());
    }
  }
  for (double bad : {nan, inf}) {
    FaultConfig config;
    config.enabled = true;
    config.wol_loss_probability = bad;
    EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument) << bad;
    config.wol_loss_probability = 0.0;
    config.resume_hang_probability = bad;
    EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument) << bad;
  }
}

TEST(FaultConfigTest, ChaosDayValidates) {
  FaultConfig config = FaultConfig::ChaosDay();
  EXPECT_TRUE(config.enabled);
  EXPECT_TRUE(config.Validate().ok());
}

TEST(FaultInjectorTest, InvalidConfigDisablesInjection) {
  FaultConfig config;
  config.enabled = true;
  config.wol_loss_probability = 2.0;
  FaultInjector injector(config, 42);
  EXPECT_FALSE(injector.enabled());
  EXPECT_TRUE(injector.plan().events.empty());
}

TEST(FaultInjectorTest, DisabledInjectorIsInert) {
  // The default-constructed injector must never fire, never build a plan,
  // and never consume a random draw — disabled runs stay byte-identical to
  // builds without the subsystem.
  FaultInjector injector;
  EXPECT_FALSE(injector.enabled());
  EXPECT_TRUE(injector.plan().events.empty());
  for (int i = 0; i < 1000; ++i) {
    SimTime now = SimTime::Seconds(i);
    EXPECT_EQ(injector.SampleWolLosses(now, 0), 0);
    EXPECT_FALSE(injector.SampleResumeHang(now, 0));
  }
  EXPECT_EQ(injector.TotalInjected(), 0u);
  EXPECT_EQ(injector.TotalRecovered(), 0u);
}

TEST(FaultInjectorTest, ZeroProbabilityConsumesNoDraws) {
  // Enabling a class must not perturb another class's stream: an injector
  // with only WoL loss enabled samples the same WoL sequence as one that
  // also enables resume hangs (they draw from distinct streams).
  FaultConfig wol_only;
  wol_only.enabled = true;
  wol_only.wol_loss_probability = 0.5;
  FaultConfig wol_and_hang = wol_only;
  wol_and_hang.resume_hang_probability = 0.5;

  FaultInjector a(wol_only, 9);
  FaultInjector b(wol_and_hang, 9);
  for (int i = 0; i < 256; ++i) {
    SimTime now = SimTime::Seconds(i);
    // Interleave resume-hang draws in b only; the WoL sequences must still
    // agree.
    b.SampleResumeHang(now, 1);
    EXPECT_EQ(a.SampleWolLosses(now, 1), b.SampleWolLosses(now, 1)) << "draw " << i;
  }
  EXPECT_GT(b.injected(FaultClass::kResumeHang), 0u);
}

TEST(FaultInjectorTest, SampleSequencesAreSeedDeterministic) {
  FaultConfig config;
  config.enabled = true;
  config.resume_hang_probability = 0.3;
  FaultInjector a(config, 1234);
  FaultInjector b(config, 1234);
  for (int i = 0; i < 512; ++i) {
    SimTime now = SimTime::Millis(i);
    EXPECT_EQ(a.SampleResumeHang(now, 0), b.SampleResumeHang(now, 0)) << "draw " << i;
  }
  EXPECT_EQ(a.injected(FaultClass::kResumeHang), b.injected(FaultClass::kResumeHang));
  EXPECT_GT(a.injected(FaultClass::kResumeHang), 0u);
}

TEST(FaultInjectorTest, WolLossRunsAreCappedAtMaxRetries) {
  FaultConfig config;
  config.enabled = true;
  config.wol_loss_probability = 1.0;  // every packet lost
  FaultInjector injector(config, 5);
  EXPECT_EQ(injector.SampleWolLosses(SimTime::Zero(), 0), kMaxWolRetries);
  EXPECT_EQ(injector.injected(FaultClass::kWolLoss), 1u);
}

TEST(FaultInjectorTest, RecordingTracksPerClassCounts) {
  FaultConfig config;
  config.enabled = true;
  config.host_crash_per_hour = 0.1;
  FaultInjector injector(config, 2);
  injector.RecordInjected(FaultClass::kHostCrash, SimTime::Hours(1.0));
  injector.RecordRecovered(FaultClass::kHostCrash, SimTime::Hours(1.0), SimTime::Hours(1.1));
  injector.RecordSkipped(FaultClass::kMigrationAbort, SimTime::Hours(2.0));
  EXPECT_EQ(injector.injected(FaultClass::kHostCrash), 1u);
  EXPECT_EQ(injector.recovered(FaultClass::kHostCrash), 1u);
  EXPECT_EQ(injector.skipped(FaultClass::kMigrationAbort), 1u);
  EXPECT_EQ(injector.TotalInjected(), 1u);
  EXPECT_EQ(injector.TotalRecovered(), 1u);
}

}  // namespace
}  // namespace oasis
