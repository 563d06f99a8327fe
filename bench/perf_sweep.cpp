// Perf sweep: wall-clock throughput of the simulator core and the parallel
// experiment runner on the Figure 12 sensitivity grid.
//
// The harness executes the same experiment plan (5 cluster shapes x 3
// consolidation-host counts x OASIS_BENCH_RUNS repetitions, weekday) at a
// sweep of job counts — always jobs=1 (the serial reference) plus doubling
// steps up to OASIS_JOBS (default: hardware concurrency). For every step it
// reports wall seconds, runs/sec, simulator events/sec and the speedup over
// jobs=1, and writes the series to BENCH_sweep.json (override the path with
// OASIS_BENCH_JSON; tools/update_bench.sh refreshes the repo-root copy that
// tracks the perf trajectory across PRs).
//
// Determinism is enforced, not assumed: a checksum over every run's metrics
// must be identical at every job count; the binary exits non-zero on a
// mismatch. Stdout carries only the deterministic lines (header, plan,
// checksum) and is pinned by the golden suite; all wall-clock timing goes
// through obs::TimingLine to stderr, so timing output can change freely
// without touching tests/golden/.
//
// With OASIS_PROF=summary every sweep step also collects a
// wall-clock profile — per-phase breakdown, parallel efficiency, serial
// merge fraction, per-worker busy/idle — printed per step to stderr and
// embedded per step as the "prof" block in BENCH_sweep.json, so the jobs=N
// scaling loss arrives pre-diagnosed.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <vector>

#include "bench/bench_util.h"
#include "src/check/run_scope.h"
#include "src/common/digest.h"
#include "src/common/table.h"
#include "src/exp/exp.h"
#include "src/obs/obs.h"
#include "src/obs/prof.h"

namespace oasis {
namespace {

// FNV-1a over the bit patterns of every run's headline metrics: equal
// checksums mean equal simulation results, independent of execution order.
uint64_t ResultsChecksum(const std::vector<SimulationResult>& results) {
  Fnv1a fnv;
  for (const SimulationResult& result : results) {
    const ClusterMetrics& m = result.metrics;
    fnv.Fold(m.TotalEnergy());
    fnv.Fold(m.baseline_energy);
    fnv.Fold(m.EnergySavings());
    fnv.Fold(m.full_migrations);
    fnv.Fold(m.partial_migrations);
    fnv.Fold(m.reintegrations);
    fnv.Fold(m.host_wakes);
    fnv.Fold(m.events_dispatched);
  }
  return fnv.hash();
}

exp::ExperimentPlan Fig12Grid(int runs) {
  struct Shape {
    int homes;
    int vms_per_home;
  };
  const Shape shapes[] = {{30, 30}, {20, 45}, {18, 50}, {15, 60}, {10, 90}};
  exp::ExperimentPlan plan;
  for (const Shape& shape : shapes) {
    for (int cons : {2, 3, 4}) {
      SimulationConfig config =
          PaperCluster(ConsolidationPolicy::kFullToPartial, cons, DayKind::kWeekday);
      config.cluster.num_home_hosts = shape.homes;
      config.cluster.SetVmsPerHome(shape.vms_per_home);
      plan.AddRepetitions(config, runs);
    }
  }
  return plan;
}

struct SweepPoint {
  int jobs = 0;       // requested (the OASIS_JOBS-style knob)
  int effective = 0;  // workers actually used after the runner's clamp
  double wall_s = 0.0;
  uint64_t events = 0;
  uint64_t checksum = 0;
  bool has_prof = false;
  prof::Report prof_report;
};

// A requested job count that clamps to an effective worker count some
// earlier sweep point already measured — running it would time the identical
// execution again and show up as a phantom "slowdown" on low-core hosts.
struct CollapsedPoint {
  int jobs = 0;
  int effective = 0;
};

}  // namespace
}  // namespace oasis

int main() {
  oasis::check::RunScope run_scope;
  using namespace oasis;
  int runs = std::max(1, BenchRuns() - 2);
  PrintExperimentHeader(std::cout, "Perf sweep - parallel experiment runner throughput",
                        "Figure 12 sensitivity grid (5 shapes x 3 consolidation counts) "
                        "executed at increasing OASIS_JOBS; results must be identical at "
                        "every job count.");

  // jobs sweep: 1, 2, 4, ... up to the requested maximum (always >= 1 step).
  int max_jobs = exp::JobsFromEnv();
  std::vector<int> jobs_requested{1};
  for (int jobs = 2; jobs < max_jobs; jobs *= 2) {
    jobs_requested.push_back(jobs);
  }
  if (max_jobs > 1) {
    jobs_requested.push_back(max_jobs);
  }

  exp::ExperimentPlan plan = Fig12Grid(runs);
  std::printf("plan: %zu runs (%d reps per datapoint), sweeping jobs up to %d\n\n",
              plan.size(), runs, max_jobs);

  // Keep only the first sweep point per *effective* worker count: on a
  // low-core host jobs=2 and jobs=4 clamp to the same execution as some
  // earlier point, and timing it again only manufactures noise that reads
  // as a parallel slowdown in the cross-PR trajectory. The collapsed points
  // are reported (stderr + JSON) rather than silently dropped. Stdout stays
  // untouched — it is pinned by the golden suite and must not depend on the
  // machine's core count.
  std::vector<int> jobs_sweep;
  std::vector<CollapsedPoint> collapsed;
  for (int jobs : jobs_requested) {
    const int effective = exp::EffectiveWorkers(jobs, plan.size());
    bool duplicate = false;
    for (int kept : jobs_sweep) {
      duplicate |= exp::EffectiveWorkers(kept, plan.size()) == effective;
    }
    if (duplicate) {
      collapsed.push_back({jobs, effective});
      obs::TimingLine("jobs=%-3d collapses to %d effective worker%s on this host; skipping",
                      jobs, effective, effective == 1 ? "" : "s");
    } else {
      jobs_sweep.push_back(jobs);
    }
  }

  const bool profiling = run_scope.config().obs.ProfilingRequested();
  // Each step is timed best-of-3: the plan is deterministic, so the fastest
  // repetition is the one least disturbed by scheduler noise — the right
  // estimator for a snapshot whose step-to-step *ratios* are compared
  // across PRs. Results are checksummed every repetition regardless.
  constexpr int kTimingReps = 3;
  std::vector<SweepPoint> points;
  for (int jobs : jobs_sweep) {
    SweepPoint point;
    point.jobs = jobs;
    point.effective = exp::EffectiveWorkers(jobs, plan.size());
    for (int rep = 0; rep < kTimingReps; ++rep) {
      auto start = std::chrono::steady_clock::now();
      std::vector<SimulationResult> results = exp::RunParallel(plan, jobs);
      auto end = std::chrono::steady_clock::now();
      const double wall_s = std::chrono::duration<double>(end - start).count();
      prof::Report report;
      if (profiling) {
        // One collection window per repetition: the report's
        // wall/efficiency numbers describe exactly this RunParallel call.
        report = prof::Profiler::Instance().Collect(/*reset=*/true);
      }
      uint64_t events = 0;
      for (const SimulationResult& result : results) {
        events += result.metrics.events_dispatched;
      }
      const uint64_t checksum = ResultsChecksum(results);
      if (rep > 0 && (checksum != point.checksum || events != point.events)) {
        std::fprintf(stderr, "repetition %d of jobs=%d changed the checksum\n", rep, jobs);
        return 1;
      }
      point.events = events;
      point.checksum = checksum;
      if (rep == 0 || wall_s < point.wall_s) {
        point.wall_s = wall_s;
        point.has_prof = profiling;
        point.prof_report = report;
      }
    }
    points.push_back(point);
    obs::TimingLine(
        "jobs=%-3d workers=%-3d wall=%8.3fs  runs/s=%7.2f  events/s=%11.0f  speedup=%5.2fx",
        jobs, point.effective, point.wall_s, plan.size() / point.wall_s,
        point.events / point.wall_s, points.front().wall_s / point.wall_s);
    if (point.has_prof) {
      point.prof_report.WriteTable(std::cerr);
    }
  }

  bool deterministic = true;
  for (const SweepPoint& point : points) {
    if (point.checksum != points.front().checksum || point.events != points.front().events) {
      deterministic = false;
    }
  }
  std::printf("results checksum: %016llx across all job counts (%s)\n",
              static_cast<unsigned long long>(points.front().checksum),
              deterministic ? "identical" : "MISMATCH - determinism broken");

  const std::string json_path = knobs::String(knobs::Knob::kBenchJson, "BENCH_sweep.json");
  std::ofstream json(json_path);
  if (json) {
    json << "{\n  \"bench\": \"perf_sweep\",\n  \"grid\": \"fig12_weekday\",\n";
    // Machine/revision stamps so cross-PR trajectory diffs are interpretable:
    // a jobs=4 speedup of 1.0x means something entirely different on a
    // 1-core box than on a 16-core one. The SHA comes from the environment
    // (tools/update_bench.sh exports it) so the binary stays hermetic.
    json << "  \"hardware_cores\": " << exp::HardwareJobs() << ",\n";
    json << "  \"git_sha\": \"" << knobs::String(knobs::Knob::kBenchGitSha, "unknown") << "\",\n";
    json << "  \"runs\": " << plan.size() << ",\n";
    json << "  \"reps_per_datapoint\": " << runs << ",\n";
    char checksum_hex[32];
    std::snprintf(checksum_hex, sizeof(checksum_hex), "%016llx",
                  static_cast<unsigned long long>(points.front().checksum));
    json << "  \"results_checksum\": \"" << checksum_hex << "\",\n";
    json << "  \"deterministic\": " << (deterministic ? "true" : "false") << ",\n";
    json << "  \"prof_mode\": \"" << prof::ProfModeName(run_scope.config().obs.prof_mode)
         << "\",\n";
    // Requested job counts whose effective worker count duplicated an
    // earlier point; kept in the record so a trajectory diff can tell "the
    // sweep shrank" from "the machine shrank".
    json << "  \"collapsed_points\": [";
    for (size_t i = 0; i < collapsed.size(); ++i) {
      json << (i > 0 ? ", " : "") << "{\"jobs\": " << collapsed[i].jobs
           << ", \"effective_workers\": " << collapsed[i].effective << "}";
    }
    json << "],\n";
    json << "  \"sweep\": [\n";
    for (size_t i = 0; i < points.size(); ++i) {
      const SweepPoint& point = points[i];
      json << "    {\"jobs\": " << point.jobs
           << ", \"effective_workers\": " << point.effective
           << ", \"wall_s\": " << point.wall_s
           << ", \"runs_per_sec\": " << plan.size() / point.wall_s
           << ", \"events_dispatched\": " << point.events
           << ", \"events_per_sec\": " << point.events / point.wall_s
           << ", \"speedup_vs_jobs1\": " << points.front().wall_s / point.wall_s;
      if (point.has_prof) {
        json << ",\n     \"prof\":\n";
        point.prof_report.WriteJson(json, 5);
        json << "\n    }";
      } else {
        json << "}";
      }
      json << (i + 1 < points.size() ? "," : "") << "\n";
    }
    json << "  ]\n}\n";
    obs::TimingLine("wrote %s", json_path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
  }
  return deterministic ? 0 : 1;
}
