#include "src/exp/exp.h"

#include <algorithm>
#include <atomic>
#include <latch>
#include <memory>
#include <thread>
#include <utility>

#include "src/common/knobs.h"
#include "src/obs/prof.h"
#include "src/obs/run_context.h"

namespace oasis {
namespace exp {

size_t ExperimentPlan::Add(const SimulationConfig& config) {
  PlannedRun run;
  run.config = config;
  run.repetition = 0;
  run.index = runs_.size();
  runs_.push_back(std::move(run));
  return runs_.back().index;
}

RepetitionSpan ExperimentPlan::AddRepetitions(const SimulationConfig& config, int runs) {
  RepetitionSpan span{runs_.size(), runs};
  for (int r = 0; r < runs; ++r) {
    PlannedRun run;
    run.config = config;
    run.config.seed = DeriveSeed(config.seed, r);
    run.repetition = r;
    run.index = runs_.size();
    runs_.push_back(std::move(run));
  }
  return span;
}

uint64_t ExperimentPlan::DeriveSeed(uint64_t base, int repetition) {
  return base + static_cast<uint64_t>(repetition) * 0x9E3779B9ull;
}

int HardwareJobs() {
  unsigned n = std::thread::hardware_concurrency();
  return n > 0 ? static_cast<int>(n) : 1;
}

int JobsFromEnv() {
  return static_cast<int>(knobs::Int(knobs::Knob::kJobs).value_or(HardwareJobs()));
}

int EffectiveWorkers(int jobs, size_t count) {
  // Workers beyond the hardware add scheduling churn without parallelism
  // (the profiler attributed the jobs=4 loss on small hosts to exactly
  // that); beyond the task count they would only idle. A single worker
  // runs inline: a thread would be pure overhead.
  return std::max(1, std::min({jobs, HardwareJobs(), static_cast<int>(count)}));
}

void RunOrdered(size_t count, int jobs, const BatchTask& task,
                const MetricsPrefix& metrics_prefix) {
  prof::ProfScope prof_wall(prof::Phase::kRunParallel);
  const int workers = EffectiveWorkers(jobs, count);
  if (prof::Profiler::Enabled()) {
    prof::Profiler::Instance().NoteJobs(workers);
  }

  // With both global collectors dark — every timed bench pass — the
  // contexts would collect nothing and merge nothing, so none are built:
  // every IfEnabled site stays null and the tasks run context-free. The
  // decision is taken once, here, so no worker races a concurrent
  // SetEnabled.
  const bool collect = obs::Tracer::Global().enabled() ||
                       obs::MetricsRegistry::Global().enabled();
  auto make_context = [collect]() -> std::unique_ptr<obs::RunContext> {
    if (!collect) {
      return nullptr;
    }
    prof::ProfScope prof_ctor(prof::Phase::kRunContextCtor);
    return std::make_unique<obs::RunContext>();
  };
  auto run = [&task](size_t i, obs::RunContext* context) {
    // The Scope reroutes instrumentation reached through thread-local
    // lookup (log sim-time, IfEnabled sites outside the manager); the task
    // passes `context` on for the manager's own resolution.
    prof::ProfScope prof_run(prof::Phase::kRunSim);
    obs::RunContext::Scope scope(context);
    task(i, context);
  };
  // The index-order merge is what makes OASIS_TRACE / OASIS_METRICS exports
  // independent of the job count. It is the serial tail Amdahl charges
  // against scaling; the profiler reports its share of wall time as
  // merge_serial_fraction.
  auto merge = [&metrics_prefix](size_t i, std::unique_ptr<obs::RunContext> context) {
    if (context != nullptr) {
      context->MergeIntoGlobals(metrics_prefix ? metrics_prefix(i) : std::string());
    }
  };

  if (workers == 1) {
    for (size_t i = 0; i < count; ++i) {
      std::unique_ptr<obs::RunContext> context;
      {
        prof::ProfScope prof_setup(prof::Phase::kRunSetup);
        context = make_context();
      }
      run(i, context.get());
      prof::ProfScope prof_merge(prof::Phase::kRunMerge);
      merge(i, std::move(context));
    }
    return;
  }

  // Contexts are built up-front on this thread, a serial cost the profiler
  // charges to exp.run_setup.
  std::vector<std::unique_ptr<obs::RunContext>> contexts(count);
  {
    prof::ProfScope prof_setup(prof::Phase::kRunSetup);
    for (std::unique_ptr<obs::RunContext>& context : contexts) {
      context = make_context();
    }
  }

  // One fixed batch of coarse tasks: workers claim indices from a shared
  // cursor until it runs out, then wait for the rest of the batch. The
  // wait is pool.idle — the imbalance worker_idle_share measures.
  std::atomic<size_t> cursor{0};
  std::latch batch_done(workers);
  auto work = [&](int worker) {
    const bool profiling = prof::Profiler::Enabled();
    prof::Profiler& profiler = prof::Profiler::Instance();
    if (profiling) {
      profiler.LabelCurrentThread("worker", worker);
    }
    for (size_t i = cursor.fetch_add(1); i < count; i = cursor.fetch_add(1)) {
      const uint64_t start = profiling ? prof::Profiler::NowNs() : 0;
      run(i, contexts[i].get());
      if (profiling) {
        profiler.AddCount(prof::Count::kTasksRun);
        profiler.RecordSpan(prof::Phase::kPoolTaskRun, start, prof::Profiler::NowNs());
      }
    }
    const uint64_t idle_start = profiling ? prof::Profiler::NowNs() : 0;
    batch_done.arrive_and_wait();
    if (profiling) {
      profiler.RecordSpan(prof::Phase::kPoolIdle, idle_start, prof::Profiler::NowNs());
    }
  };
  {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(workers));
    for (int w = 0; w < workers; ++w) {
      threads.emplace_back(work, w);
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
  }

  prof::ProfScope prof_merge(prof::Phase::kRunMerge);
  for (size_t i = 0; i < count; ++i) {
    merge(i, std::move(contexts[i]));
  }
}

std::vector<SimulationResult> RunParallel(const ExperimentPlan& plan, int jobs) {
  std::vector<SimulationResult> results(plan.size());
  RunOrdered(plan.size(), jobs, [&plan, &results](size_t i, obs::RunContext* context) {
    results[i] = ClusterSimulation(plan.runs()[i].config, context).Run();
  });
  return results;
}

RepeatedRunResult CollectRepeated(std::vector<SimulationResult>& results,
                                  RepetitionSpan span) {
  RepeatedRunResult out;
  for (int r = 0; r < span.count; ++r) {
    SimulationResult& result = results[span.first + static_cast<size_t>(r)];
    out.savings.Add(result.metrics.EnergySavings());
    out.total_energy_kwh.Add(ToKWh(result.metrics.TotalEnergy()));
    out.baseline_energy_kwh.Add(ToKWh(result.metrics.baseline_energy));
    out.runs.push_back(std::move(result));
  }
  return out;
}

RepeatedRunResult RunRepeated(const SimulationConfig& config, int runs, int jobs) {
  ExperimentPlan plan;
  RepetitionSpan span = plan.AddRepetitions(config, runs);
  std::vector<SimulationResult> results = RunParallel(plan, jobs);
  return CollectRepeated(results, span);
}

}  // namespace exp
}  // namespace oasis
