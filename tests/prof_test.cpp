// The wall-clock profiler's contract: percentile math is honest within the
// log-linear bucket error, OASIS_PROF spellings select the right mode and
// a check::RunScope runs the profiler until it closes, profiling provably never
// perturbs simulation results, and the per-thread buffers survive a real
// parallel run at jobs=4 with a self-consistent report.

#include "src/obs/prof.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <vector>

#include "src/check/run_scope.h"
#include "src/exp/exp.h"
#include "src/obs/metrics.h"
#include "src/obs/obs.h"
#include "tests/metric_digest.h"
#include "tests/test_env.h"

namespace oasis {
namespace prof {
namespace {

// Small enough for unit-test latency, big enough to run real migrations
// through the batch workers.
SimulationConfig SmallCluster(uint64_t seed = 1234) {
  SimulationConfig config;
  config.cluster.num_home_hosts = 6;
  config.cluster.num_consolidation_hosts = 2;
  config.cluster.vms_per_home = 8;
  config.seed = seed;
  return config;
}

// Zeroes profiler state around tests that enable it, so test order cannot
// leak samples between cases.
class ProfilerGuard {
 public:
  ProfilerGuard() { Profiler::Instance().Reset(); }
  ~ProfilerGuard() {
    Profiler::Instance().SetMode(ProfMode::kOff);
    Profiler::Instance().Reset();
  }
};

// --- percentile correctness (table-driven) ----------------------------------

TEST(ProfHistogramTest, PercentileTableWithinLogLinearError) {
  // The report's p50/p95/p99 come from obs::Histogram's log-linear buckets
  // (16 sub-buckets per power of two => <= ~6.5% relative error). Each case
  // records a known distribution of durations-in-seconds at profiler scale
  // (hundreds of nanoseconds to minutes) and pins the quantiles.
  struct Case {
    const char* name;
    std::vector<double> values;  // recorded in order given
    double pct;
    double expected;
  };
  const Case cases[] = {
      {"uniform_1us_to_1ms_p50", {}, 50.0, 500e-6},   // filled below
      {"uniform_1us_to_1ms_p95", {}, 95.0, 950e-6},
      {"uniform_1us_to_1ms_p99", {}, 99.0, 990e-6},
      {"single_value_any_pct", {0.25}, 99.0, 0.25},
      {"two_points_p50", {1e-6, 1.0}, 50.0, 1e-6},
      {"heavy_tail_p99", {}, 99.0, 60.0},
  };
  for (const Case& c : cases) {
    obs::MetricsRegistry reg;
    obs::Histogram* h = reg.histogram("phase");
    std::vector<double> values = c.values;
    if (std::string(c.name).rfind("uniform", 0) == 0) {
      for (int i = 1; i <= 1000; ++i) {
        values.push_back(static_cast<double>(i) * 1e-6);  // 1us .. 1ms
      }
    } else if (std::string(c.name) == "heavy_tail_p99") {
      for (int i = 0; i < 980; ++i) {
        values.push_back(1e-6);
      }
      for (int i = 0; i < 20; ++i) {
        values.push_back(60.0);  // twenty one-minute stalls: p99 is a stall
      }
    }
    for (double v : values) {
      h->Record(v);
    }
    double got = h->Percentile(c.pct);
    EXPECT_NEAR(got, c.expected, c.expected * 0.065)
        << c.name << ": p" << c.pct << " = " << got << ", want ~" << c.expected;
  }
}

TEST(ProfHistogramTest, PercentileClampedToObservedRange) {
  obs::MetricsRegistry reg;
  obs::Histogram* h = reg.histogram("phase");
  h->Record(3e-6);
  h->Record(5e-6);
  EXPECT_GE(h->Percentile(0.0), 3e-6);
  EXPECT_LE(h->Percentile(100.0), 5e-6);
}

// --- OASIS_PROF through check::RunScope --------------------------------------

TEST(ProfModeTest, ObsConfigReadsAcceptedSpellings) {
  struct Case {
    const char* value;  // nullptr = unset
    ProfMode expected;
  };
  const Case cases[] = {
      {nullptr, ProfMode::kOff},       {"", ProfMode::kOff},
      {"off", ProfMode::kOff},         {"0", ProfMode::kOff},
      {"summary", ProfMode::kSummary}, {"on", ProfMode::kSummary},
      {"1", ProfMode::kSummary},
  };
  for (const Case& c : cases) {
    testing::EnvGuard guard("OASIS_PROF", c.value);
    EXPECT_EQ(obs::ObsConfig::FromEnv().prof_mode, c.expected)
        << "OASIS_PROF=" << (c.value ? c.value : "<unset>");
  }
}

TEST(ProfModeTest, RunScopeRunsTheProfilerUntilItCloses) {
  ProfilerGuard profiler_guard;
  check::RunConfig config;
  config.obs.prof_mode = ProfMode::kSummary;
  {
    check::RunScope scope(config);
    EXPECT_TRUE(Profiler::Enabled());
    { ProfScope span(Phase::kRunSim); }
  }
  EXPECT_FALSE(Profiler::Enabled());
  // Closing the scope collected the window it reported.
  EXPECT_FALSE(Profiler::Instance().Collect(/*reset=*/true).HasSamples());
}

// --- no effect on simulation output ------------------------------------------

TEST(ProfIsolationTest, ProfilingModesLeaveDigestsIdentical) {
  // The acceptance bar: bit-identical SimulationResult digests with the
  // profiler off and in summary mode, at jobs=1 and 4.
  ProfilerGuard profiler_guard;
  exp::ExperimentPlan plan;
  for (uint64_t seed : {11u, 12u, 13u, 14u}) {
    plan.Add(SmallCluster(seed));
  }
  std::vector<uint64_t> digests;
  for (ProfMode mode : {ProfMode::kOff, ProfMode::kSummary}) {
    for (int jobs : {1, 4}) {
      Profiler::Instance().SetMode(mode);
      std::vector<SimulationResult> results = exp::RunParallel(plan, jobs);
      Profiler::Instance().SetMode(ProfMode::kOff);
      Profiler::Instance().Reset();
      testing::MetricDigest digest;
      for (const SimulationResult& result : results) {
        digest.Fold(testing::DigestMetrics(result.metrics));
      }
      digests.push_back(digest.hash());
    }
  }
  for (size_t i = 1; i < digests.size(); ++i) {
    EXPECT_EQ(digests[i], digests[0]) << "mode/jobs combination " << i;
  }
}

// --- per-thread buffers under a real parallel run -----------------------------

TEST(ProfParallelTest, CollectAfterJobs4IsSelfConsistent) {
  // Eight runs across the batch workers: every worker records into its own
  // buffer concurrently; Collect after the batch must see all of it exactly
  // once. The runner clamps workers to the hardware, so the expected worker
  // count is min(4, cores); global metrics are enabled so run contexts are
  // built (with collectors dark the runner skips them entirely).
  ProfilerGuard profiler_guard;
  const int expected_workers = std::min(4, exp::HardwareJobs());
  obs::MetricsRegistry::Global().set_enabled(true);
  Profiler::Instance().SetMode(ProfMode::kSummary);
  Profiler::Instance().LabelCurrentThread("main");
  exp::ExperimentPlan plan;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    plan.Add(SmallCluster(seed));
  }
  std::vector<SimulationResult> results = exp::RunParallel(plan, 4);
  obs::MetricsRegistry::Global().set_enabled(false);
  obs::MetricsRegistry::Global().ResetValues();
  Report report = Profiler::Instance().Collect(/*reset=*/true);

  EXPECT_EQ(report.jobs, expected_workers);
  EXPECT_TRUE(report.HasSamples());
  EXPECT_GT(report.wall_s, 0.0);
  bool saw_sim = false, saw_merge = false, saw_setup = false, saw_task_run = false;
  uint64_t sim_count = 0;
  for (const PhaseStats& p : report.phases) {
    std::string name = p.name;
    if (name == "exp.run_sim") {
      saw_sim = true;
      sim_count = p.count;
    }
    saw_merge = saw_merge || name == "exp.merge";
    saw_setup = saw_setup || name == "exp.run_setup";
    saw_task_run = saw_task_run || name == "pool.task_run";
  }
  EXPECT_TRUE(saw_sim);
  EXPECT_EQ(sim_count, 8u);
  // One context per run at every worker count, built, merged and timed.
  EXPECT_EQ(report.counts[static_cast<int>(Count::kRunContexts)], 8u);
  EXPECT_TRUE(saw_merge && saw_setup);
  // The batch has no queues: the retired counters never move.
  EXPECT_EQ(report.counts[static_cast<int>(Count::kPoolSteals)], 0u);
  EXPECT_EQ(report.counts[static_cast<int>(Count::kPoolWakes)], 0u);
  if (expected_workers > 1) {
    // Every task ran on a worker exactly once.
    EXPECT_EQ(report.counts[static_cast<int>(Count::kTasksRun)], 8u);
    EXPECT_TRUE(saw_task_run);
    // Every worker recorded; rows merge by label, exactly worker0..N-1.
    EXPECT_EQ(report.workers.size(), static_cast<size_t>(expected_workers));
    uint64_t tasks = 0;
    for (const WorkerRow& worker : report.workers) {
      tasks += worker.tasks;
    }
    EXPECT_EQ(tasks, 8u);
  } else {
    // A single effective worker runs the tasks inline: no worker threads.
    EXPECT_EQ(report.counts[static_cast<int>(Count::kTasksRun)], 0u);
    EXPECT_FALSE(saw_task_run);
  }
  // busy <= wall per worker, so efficiency is a fraction (plus clock jitter).
  EXPECT_GT(report.parallel_efficiency, 0.0);
  EXPECT_LE(report.parallel_efficiency, 1.1);
  EXPECT_GE(report.merge_serial_fraction, 0.0);
  EXPECT_STRNE(report.bottleneck, "");

  // reset=true opened a fresh window: nothing left to collect.
  Report empty = Profiler::Instance().Collect(/*reset=*/false);
  EXPECT_FALSE(empty.HasSamples());
}

// --- report wiring ------------------------------------------------------------

TEST(ProfReportTest, JsonCarriesScalingFieldsAndParses) {
  ProfilerGuard profiler_guard;
  Profiler::Instance().SetMode(ProfMode::kSummary);
  exp::ExperimentPlan plan;
  plan.Add(SmallCluster(7));
  plan.Add(SmallCluster(8));
  exp::RunParallel(plan, 2);
  Report report = Profiler::Instance().Collect(/*reset=*/true);
  std::ostringstream json;
  report.WriteJson(json, 0);
  const std::string text = json.str();
  // The CI perf-smoke gate greps for exactly these fields.
  EXPECT_NE(text.find("\"parallel_efficiency\":"), std::string::npos);
  EXPECT_NE(text.find("\"merge_serial_fraction\":"), std::string::npos);
  EXPECT_NE(text.find("\"worker_idle_share\":"), std::string::npos);
  EXPECT_NE(text.find("\"bottleneck\":"), std::string::npos);
  EXPECT_NE(text.find("\"trace_dropped\":"), std::string::npos);

  std::ostringstream table;
  report.WriteTable(table);
  EXPECT_NE(table.str().find("[prof] top scaling bottleneck:"), std::string::npos);
}

TEST(ProfReportTest, MetricsMergeDropCountSurfaces) {
  // A kind mismatch across run registries must not vanish: MergeFrom counts
  // the skipped instrument and the profiler report carries it.
  obs::MetricsRegistry a;
  obs::MetricsRegistry b;
  a.counter("x");
  b.histogram("x")->Record(1.0);
  b.counter("y")->Increment();
  a.MergeFrom(b);
  EXPECT_EQ(a.merge_dropped(), 1u);
  EXPECT_EQ(a.counter("y")->value(), 1u);

  // Drops already counted upstream propagate through further merges.
  obs::MetricsRegistry c;
  c.MergeFrom(a);
  EXPECT_EQ(c.merge_dropped(), 1u);
}

}  // namespace
}  // namespace prof
}  // namespace oasis
