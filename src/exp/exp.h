// The deterministic batch runner.
//
// Every §5 datapoint is the mean of independent rack-day runs, and the
// datacenter tier is the same thing at scale: N independent rack-days
// merged in a fixed order. RunOrdered is the one function that executes
// such a batch; RunParallel (planned ClusterSimulations) and
// dc::ShardRunner (topology racks) are thin tasks on top of it:
//
//   oasis::exp::ExperimentPlan plan;
//   auto span = plan.AddRepetitions(config, 5);   // seeds derived per rep
//   auto results = oasis::exp::RunParallel(plan); // OASIS_JOBS workers
//   auto agg = oasis::exp::CollectRepeated(results, span);
//
// The determinism contract (DESIGN.md § Performance & parallel experiments):
//   * each task is an independent simulation with a seed fixed at
//     plan-build time; execution order cannot influence any result;
//   * when a global collector is on, every task records into a run-local
//     obs::RunContext (same trace capacity as the global ring), and the
//     contexts merge into the globals in index order — at every job count,
//     the serial one included;
//   * aggregation (CollectRepeated) folds results in plan order, so the
//     floating-point reduction order matches the serial loop exactly.
// Under those rules the output is byte-identical for every value of
// OASIS_JOBS.

#ifndef OASIS_SRC_EXP_EXP_H_
#define OASIS_SRC_EXP_EXP_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/core/oasis.h"
#include "src/obs/run_context.h"

namespace oasis {
namespace exp {

// One entry of an ExperimentPlan: a fully-resolved SimulationConfig (seed
// already derived) plus where it sits in the plan.
struct PlannedRun {
  SimulationConfig config;
  int repetition = 0;  // index within its AddRepetitions group (0 for Add)
  size_t index = 0;    // position in the plan == index into RunParallel's result
};

// The half-open group [first, first + count) that AddRepetitions appended.
struct RepetitionSpan {
  size_t first = 0;
  int count = 0;
};

class ExperimentPlan {
 public:
  // Appends one run with `config` exactly as given; returns its plan index.
  size_t Add(const SimulationConfig& config);

  // Appends `runs` repetitions of `config`, rep r seeded with
  // DeriveSeed(config.seed, r).
  RepetitionSpan AddRepetitions(const SimulationConfig& config, int runs);

  // seed_r = base + r * 0x9E3779B9 (golden-ratio stride, distinct streams).
  static uint64_t DeriveSeed(uint64_t base, int repetition);

  const std::vector<PlannedRun>& runs() const { return runs_; }
  size_t size() const { return runs_.size(); }
  bool empty() const { return runs_.empty(); }

 private:
  std::vector<PlannedRun> runs_;
};

// std::thread::hardware_concurrency(), at least 1.
int HardwareJobs();

// OASIS_JOBS when set, else HardwareJobs(). A malformed value exits 2
// (knobs::Reject).
int JobsFromEnv();

// The worker count RunOrdered actually uses when asked for `jobs` over
// `count` tasks: clamped to the hardware (more workers than cores add
// scheduling churn without parallelism) and to the task count (extra
// workers would only idle), floor 1 (inline on the calling thread). Exposed
// so sweep harnesses can tell which requested job counts collapse to the
// same execution — on a 1-core host every jobs=N point is the same serial
// run.
int EffectiveWorkers(int jobs, size_t count);

// Runs task(i, context) once for every i in [0, count) and merges the
// run-local contexts into the global collectors in index order, task i's
// metrics under metrics_prefix(i) when one is given.
//
// `context` is null when both global collectors are dark (the runs then
// record nothing, exactly like an unobserved serial loop); otherwise it is
// a fresh obs::RunContext, also installed on the running thread for the
// duration of the task. With one effective worker the tasks run inline and
// each context is merged and released right after its task, so a traced
// serial sweep holds one run-local ring at a time. With more, the tasks run
// on EffectiveWorkers(jobs, count) threads claiming indices from a shared
// cursor, and the merge follows the batch: until then every context is
// alive, so a traced batch holds up to count x Tracer::Global().capacity()
// events at peak.
//
// A task must write only state owned by its index.
using BatchTask = std::function<void(size_t index, obs::RunContext* context)>;
using MetricsPrefix = std::function<std::string(size_t index)>;
void RunOrdered(size_t count, int jobs, const BatchTask& task,
                const MetricsPrefix& metrics_prefix = nullptr);

// Runs every planned ClusterSimulation through RunOrdered and returns the
// results indexed by plan position.
std::vector<SimulationResult> RunParallel(const ExperimentPlan& plan, int jobs);
inline std::vector<SimulationResult> RunParallel(const ExperimentPlan& plan) {
  return RunParallel(plan, JobsFromEnv());
}

// Folds one repetition group of `results` into the RepeatedRunResult shape,
// adding to the OnlineStats in repetition order (the serial reduction
// order). Moves the group's SimulationResults out of `results`.
RepeatedRunResult CollectRepeated(std::vector<SimulationResult>& results,
                                  RepetitionSpan span);

// Aggregate of `runs` repetitions of `config` (seeds from DeriveSeed), the
// way §5 reports each datapoint as the average of several runs.
RepeatedRunResult RunRepeated(const SimulationConfig& config, int runs, int jobs);
inline RepeatedRunResult RunRepeated(const SimulationConfig& config, int runs) {
  return RunRepeated(config, runs, JobsFromEnv());
}

}  // namespace exp
}  // namespace oasis

#endif  // OASIS_SRC_EXP_EXP_H_
