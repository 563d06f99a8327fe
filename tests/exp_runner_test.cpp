// The batch runner's determinism contract: for any OASIS_JOBS value,
// RunOrdered / RunParallel must produce bit-identical results, aggregates,
// and merged global observability compared with a context-free loop of
// ClusterSimulation(config).Run() calls recording straight into the
// globals. These tests run real simulations on several workers, so they
// double as the TSan exercise for the run-local RunContext isolation.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "src/exp/exp.h"
#include "src/fault/fault.h"
#include "src/obs/metrics.h"
#include "src/obs/run_context.h"
#include "src/obs/trace.h"
#include "tests/test_env.h"

namespace oasis {
namespace {

// Small enough for unit-test latency, big enough to exercise migrations,
// sleeps, and the consolidation policy.
SimulationConfig SmallCluster(uint64_t seed = 1234,
                              ConsolidationPolicy policy = ConsolidationPolicy::kFullToPartial) {
  SimulationConfig config;
  config.cluster.num_home_hosts = 6;
  config.cluster.num_consolidation_hosts = 2;
  config.cluster.vms_per_home = 8;
  config.cluster.policy = policy;
  config.seed = seed;
  return config;
}

// A rack whose day records well over Tracer::kDefaultCapacity trace events.
SimulationConfig BusyCluster() {
  SimulationConfig config;
  config.seed = 99;
  return config;
}

void ExpectSameMetrics(const ClusterMetrics& a, const ClusterMetrics& b) {
  // Exact equality on purpose: the contract is bit-identical, not close.
  EXPECT_EQ(a.TotalEnergy(), b.TotalEnergy());
  EXPECT_EQ(a.baseline_energy, b.baseline_energy);
  EXPECT_EQ(a.EnergySavings(), b.EnergySavings());
  EXPECT_EQ(a.full_migrations, b.full_migrations);
  EXPECT_EQ(a.partial_migrations, b.partial_migrations);
  EXPECT_EQ(a.reintegrations, b.reintegrations);
  EXPECT_EQ(a.host_sleeps, b.host_sleeps);
  EXPECT_EQ(a.host_wakes, b.host_wakes);
  EXPECT_EQ(a.events_dispatched, b.events_dispatched);
  EXPECT_EQ(a.transition_delay_s.count(), b.transition_delay_s.count());
}

// The reference every runner path must reproduce: the plan's runs one
// after another on this thread, with no run-local context, recording
// straight into whatever collectors are on.
std::vector<SimulationResult> RunContextFree(const exp::ExperimentPlan& plan) {
  std::vector<SimulationResult> results;
  for (const exp::PlannedRun& run : plan.runs()) {
    results.push_back(ClusterSimulation(run.config).Run());
  }
  return results;
}

// What a batch left in the global collectors.
struct GlobalObs {
  std::string jsonl;
  uint64_t total = 0;
  uint64_t dropped = 0;
  std::vector<obs::MetricRow> rows;
  std::string csv;
};

// Runs `body` against cleared, enabled global collectors whose trace ring
// holds `capacity` events, captures them, and restores the dark defaults.
template <typename Body>
GlobalObs CaptureGlobalObs(size_t capacity, Body body) {
  obs::Tracer& tracer = obs::Tracer::Global();
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  tracer.SetCapacity(capacity);
  tracer.set_enabled(true);
  metrics.ResetValues();
  metrics.set_enabled(true);
  body();
  GlobalObs out;
  std::ostringstream jsonl;
  tracer.ExportJsonl(jsonl);
  std::ostringstream csv;
  metrics.WriteCsv(csv);
  out.jsonl = jsonl.str();
  out.total = tracer.total_recorded();
  out.dropped = tracer.dropped();
  out.rows = metrics.Snapshot();
  out.csv = csv.str();
  tracer.set_enabled(false);
  tracer.SetCapacity(obs::Tracer::kDefaultCapacity);
  metrics.set_enabled(false);
  metrics.ResetValues();
  return out;
}

void ExpectSameObs(const GlobalObs& observed, const GlobalObs& reference) {
  EXPECT_EQ(observed.total, reference.total);
  EXPECT_EQ(observed.dropped, reference.dropped);
  EXPECT_TRUE(observed.jsonl == reference.jsonl) << "retained trace events differ";
  // The CSV prints 6 significant digits, so the snapshot rows are compared
  // too: names and counts exactly, values to 1e-9 relative.
  ASSERT_EQ(observed.rows.size(), reference.rows.size());
  for (size_t i = 0; i < reference.rows.size(); ++i) {
    EXPECT_EQ(observed.rows[i].name, reference.rows[i].name);
    EXPECT_EQ(observed.rows[i].count, reference.rows[i].count) << reference.rows[i].name;
    // Histogram sums fold per-run before merging, so a mean may move by a
    // few ULPs against the loop that records straight into the globals.
    EXPECT_NEAR(observed.rows[i].value, reference.rows[i].value,
                1e-9 * (1.0 + std::abs(reference.rows[i].value)))
        << reference.rows[i].name;
  }
  EXPECT_EQ(observed.csv, reference.csv);
}

TEST(ExperimentPlanTest, AddAssignsSequentialIndices) {
  exp::ExperimentPlan plan;
  EXPECT_TRUE(plan.empty());
  EXPECT_EQ(plan.Add(SmallCluster(1)), 0u);
  EXPECT_EQ(plan.Add(SmallCluster(2)), 1u);
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan.runs()[0].config.seed, 1u);
  EXPECT_EQ(plan.runs()[1].config.seed, 2u);
  EXPECT_EQ(plan.runs()[1].index, 1u);
}

TEST(ExperimentPlanTest, AddRepetitionsDerivesSeedsAtPlanBuildTime) {
  exp::ExperimentPlan plan;
  plan.Add(SmallCluster(7));
  exp::RepetitionSpan span = plan.AddRepetitions(SmallCluster(100), 3);
  EXPECT_EQ(span.first, 1u);
  EXPECT_EQ(span.count, 3);
  ASSERT_EQ(plan.size(), 4u);
  for (int rep = 0; rep < 3; ++rep) {
    const exp::PlannedRun& run = plan.runs()[span.first + rep];
    EXPECT_EQ(run.repetition, rep);
    EXPECT_EQ(run.config.seed, exp::ExperimentPlan::DeriveSeed(100, rep));
  }
  // The golden-ratio stride produces distinct streams.
  EXPECT_NE(exp::ExperimentPlan::DeriveSeed(100, 1), exp::ExperimentPlan::DeriveSeed(100, 2));
  EXPECT_EQ(exp::ExperimentPlan::DeriveSeed(100, 0), 100u);
}

TEST(RunOrderedTest, RunsEveryIndexExactlyOnce) {
  // Zero tasks, one task, jobs > count, and a batch much larger than the
  // worker count.
  for (size_t count : {size_t{0}, size_t{1}, size_t{3}, size_t{200}}) {
    for (int jobs : {1, 4, 16}) {
      SCOPED_TRACE(::testing::Message() << "count=" << count << " jobs=" << jobs);
      std::vector<std::atomic<int>> hits(count);
      exp::RunOrdered(count, jobs, [&hits](size_t i, obs::RunContext* context) {
        EXPECT_EQ(context, nullptr) << "collectors are dark: no context expected";
        hits[i].fetch_add(1, std::memory_order_relaxed);
      });
      for (size_t i = 0; i < count; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
      }
    }
  }
}

TEST(RunOrderedTest, InstallsContextsAndMergesUnderPrefixInIndexOrder) {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  for (int jobs : {1, 4}) {
    SCOPED_TRACE(jobs);
    metrics.ResetValues();
    metrics.set_enabled(true);
    exp::RunOrdered(
        5, jobs,
        [](size_t i, obs::RunContext* context) {
          ASSERT_NE(context, nullptr);
          EXPECT_EQ(obs::RunContext::Current(), context);
          obs::MetricsRegistry::IfEnabled()->counter("tasks")->Increment(i + 1);
          obs::MetricsRegistry::IfEnabled()->gauge("last")->Set(static_cast<double>(i));
        },
        [](size_t i) { return i % 2 == 0 ? std::string() : "shard."; });
    EXPECT_EQ(obs::RunContext::Current(), nullptr);
    // Unprefixed runs 0, 2, 4 and prefixed runs 1, 3: counters add, and a
    // gauge keeps the value of the last run merged — index order, not
    // completion order.
    EXPECT_EQ(metrics.counter("tasks")->value(), 1u + 3u + 5u);
    EXPECT_EQ(metrics.counter("shard.tasks")->value(), 2u + 4u);
    EXPECT_EQ(metrics.gauge("last")->value(), 4.0);
    EXPECT_EQ(metrics.gauge("shard.last")->value(), 3.0);
    metrics.set_enabled(false);
    metrics.ResetValues();
  }
}

TEST(JobsFromEnvTest, ParsesPositiveIntegersAndDefaultsToHardware) {
  {
    testing::EnvGuard env("OASIS_JOBS", "3");
    EXPECT_EQ(exp::JobsFromEnv(), 3);
  }
  {
    testing::EnvGuard env("OASIS_JOBS", "");
    EXPECT_EQ(exp::JobsFromEnv(), exp::HardwareJobs());
  }
  {
    testing::EnvGuard env("OASIS_JOBS", nullptr);
    EXPECT_EQ(exp::JobsFromEnv(), exp::HardwareJobs());
  }
}

TEST(ExpRunnerTest, ParallelResultsMatchSerialBitForBit) {
  // A quickstart-style mixed plan: different seeds, policies, and a
  // repetition group, all in one plan.
  exp::ExperimentPlan plan;
  plan.Add(SmallCluster(11));
  plan.Add(SmallCluster(22, ConsolidationPolicy::kDefault));
  plan.AddRepetitions(SmallCluster(33), 3);

  std::vector<SimulationResult> serial = exp::RunParallel(plan, 1);
  std::vector<SimulationResult> parallel = exp::RunParallel(plan, 4);
  ASSERT_EQ(serial.size(), plan.size());
  ASSERT_EQ(parallel.size(), plan.size());
  for (size_t i = 0; i < plan.size(); ++i) {
    SCOPED_TRACE(i);
    ExpectSameMetrics(serial[i].metrics, parallel[i].metrics);
  }
}

TEST(ExpRunnerTest, CollectRepeatedMatchesContextFreeLoop) {
  // exp::RunRepeated on N workers must reproduce a serial loop over the
  // DeriveSeed repetitions exactly, including the floating-point
  // reduction order of the aggregates.
  SimulationConfig config = SmallCluster(2016);
  exp::ExperimentPlan plan;
  plan.AddRepetitions(config, 4);
  std::vector<SimulationResult> reference = RunContextFree(plan);
  OnlineStats savings;
  OnlineStats total_energy_kwh;
  OnlineStats baseline_energy_kwh;
  for (const SimulationResult& result : reference) {
    savings.Add(result.metrics.EnergySavings());
    total_energy_kwh.Add(ToKWh(result.metrics.TotalEnergy()));
    baseline_energy_kwh.Add(ToKWh(result.metrics.baseline_energy));
  }

  RepeatedRunResult parallel = exp::RunRepeated(config, 4, 4);
  EXPECT_EQ(parallel.savings.count(), savings.count());
  EXPECT_EQ(parallel.savings.mean(), savings.mean());
  EXPECT_EQ(parallel.savings.stddev(), savings.stddev());
  EXPECT_EQ(parallel.total_energy_kwh.mean(), total_energy_kwh.mean());
  EXPECT_EQ(parallel.total_energy_kwh.min(), total_energy_kwh.min());
  EXPECT_EQ(parallel.total_energy_kwh.max(), total_energy_kwh.max());
  EXPECT_EQ(parallel.baseline_energy_kwh.mean(), baseline_energy_kwh.mean());
  ASSERT_EQ(parallel.runs.size(), reference.size());
  for (size_t i = 0; i < reference.size(); ++i) {
    SCOPED_TRACE(i);
    ExpectSameMetrics(parallel.runs[i].metrics, reference[i].metrics);
  }
}

TEST(ExpRunnerTest, RunRepeatedAggregatesRuns) {
  RepeatedRunResult result = exp::RunRepeated(SmallCluster(), 3, 2);
  EXPECT_EQ(result.runs.size(), 3u);
  EXPECT_EQ(result.savings.count(), 3u);
  EXPECT_GT(result.baseline_energy_kwh.mean(), 0.0);
  // Different per-run seeds: not all runs identical.
  EXPECT_GT(result.total_energy_kwh.max() - result.total_energy_kwh.min(), 0.0);
}

TEST(ExpRunnerTest, RunRepeatedMeanSavingsWithinRunEnvelope) {
  RepeatedRunResult result = exp::RunRepeated(SmallCluster(), 3, 2);
  EXPECT_GE(result.savings.mean(), result.savings.min());
  EXPECT_LE(result.savings.mean(), result.savings.max());
}

TEST(ExpRunnerTest, MergedGlobalObsMatchesContextFreeLoop) {
  exp::ExperimentPlan plan;
  plan.Add(SmallCluster(5));
  plan.AddRepetitions(SmallCluster(6), 2);

  const GlobalObs reference =
      CaptureGlobalObs(obs::Tracer::kDefaultCapacity, [&plan] { RunContextFree(plan); });
  ASSERT_GT(reference.total, 0u) << "no trace events recorded; test is vacuous";
  for (int jobs : {1, 4}) {
    SCOPED_TRACE(jobs);
    // The run-local rings merge in plan order, so the retained events, the
    // total, the drop count and the metrics export all match the loop.
    ExpectSameObs(CaptureGlobalObs(obs::Tracer::kDefaultCapacity,
                                   [&plan, jobs] { exp::RunParallel(plan, jobs); }),
                  reference);
  }
}

TEST(ExpRunnerTest, RunLocalRingsTakeTheGlobalCapacity) {
  // A global ring larger than the default, and runs that each record more
  // events than the default holds: a run-local ring sized at the default
  // would drop events the global ring keeps, making the export depend on
  // the job count.
  constexpr size_t kCapacity = 2 * obs::Tracer::kDefaultCapacity;
  exp::ExperimentPlan plan;
  plan.AddRepetitions(BusyCluster(), 3);

  std::vector<uint64_t> per_run;
  const GlobalObs reference = CaptureGlobalObs(kCapacity, [&plan, &per_run] {
    for (const exp::PlannedRun& run : plan.runs()) {
      const uint64_t before = obs::Tracer::Global().total_recorded();
      ClusterSimulation(run.config).Run();
      per_run.push_back(obs::Tracer::Global().total_recorded() - before);
    }
  });
  for (uint64_t events : per_run) {
    ASSERT_GT(events, obs::Tracer::kDefaultCapacity)
        << "run too small to overflow a default-sized ring";
  }
  ASSERT_GT(reference.dropped, 0u) << "global ring never wrapped; drop accounting untested";
  for (int jobs : {1, 4}) {
    SCOPED_TRACE(jobs);
    ExpectSameObs(CaptureGlobalObs(kCapacity, [&plan, jobs] { exp::RunParallel(plan, jobs); }),
                  reference);
  }
}

TEST(ExpRunnerTest, WorkerThreadsLeaveNoContextInstalled) {
  exp::ExperimentPlan plan;
  plan.Add(SmallCluster(9));
  plan.Add(SmallCluster(10));
  (void)exp::RunParallel(plan, 2);
  // The calling thread never had a context; the workers' Scopes must have
  // unwound before RunParallel returned.
  EXPECT_EQ(obs::RunContext::Current(), nullptr);
}

TEST(ExpRunnerTest, FaultInjectionIsRunLocalAndDeterministic) {
  // Chaos runs executing concurrently must not bleed injections into each
  // other: per-class counters must match the serial execution exactly.
  SimulationConfig config = SmallCluster(77);
  config.cluster.fault = FaultConfig::ChaosDay();
  exp::ExperimentPlan plan;
  plan.AddRepetitions(config, 3);

  std::vector<SimulationResult> serial = exp::RunParallel(plan, 1);
  std::vector<SimulationResult> parallel = exp::RunParallel(plan, 3);
  ASSERT_EQ(parallel.size(), serial.size());
  uint64_t total_injected = 0;
  for (size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(i);
    ExpectSameMetrics(serial[i].metrics, parallel[i].metrics);
    for (size_t c = 0; c < kNumFaultClasses; ++c) {
      EXPECT_EQ(parallel[i].metrics.fault_injected_by_class[c],
                serial[i].metrics.fault_injected_by_class[c]);
      EXPECT_EQ(parallel[i].metrics.fault_recovered_by_class[c],
                serial[i].metrics.fault_recovered_by_class[c]);
      total_injected += serial[i].metrics.fault_injected_by_class[c];
    }
  }
  EXPECT_GT(total_injected, 0u) << "chaos day injected nothing; test is vacuous";
}

}  // namespace
}  // namespace oasis
