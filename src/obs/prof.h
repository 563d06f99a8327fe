// Wall-clock profiling layer.
//
// Everything else in src/obs observes the *simulated* clock; this module
// observes where the *wall clock* goes — the measurement substrate for the
// parallel runner's scaling work. Instrumentation sites wrap a phase in a
// ProfScope:
//
//     prof::ProfScope scope(prof::Phase::kRunSim);   // two clock reads
//
// Samples land in lock-free per-thread buffers (each thread owns its buffer
// outright; the only synchronization is a mutex on first-use registration),
// aggregate into log-linear obs::Histogram instances per phase, and roll up
// into a prof::Report: per-phase wall-clock breakdown (count / total /
// p50 / p95 / p99 / max), per-worker busy/idle rows, parallel
// efficiency, the serial merge-phase share — the printed diagnosis for the
// jobs=N scaling loss — plus the trace-ring and metrics-merge drop counts so
// silently truncated observability is visible.
//
// OASIS_PROF (a row of src/common/knobs.h, read by obs::ObsConfig) picks the
// mode: off (default) makes zero clock reads — every site gates on one
// relaxed atomic load and records nothing; summary records phase histograms
// and counters, and the binary's check::RunScope reports them to stderr.
//
// The profiler never touches simulation state, RNG streams, or the sim-time
// collectors, so goldens and metric digests are byte-identical in every
// mode. All report output goes to stderr — the obs-tagged wall-clock
// channel excluded from golden capture (goldens pin stdout).
//
// Threading contract: recording is safe from any thread at any time;
// Collect()/Reset() must not run concurrently with recording threads (call
// them after exp::RunOrdered returns, as bench/perf_sweep and
// check::RunScope do).

#ifndef OASIS_SRC_OBS_PROF_H_
#define OASIS_SRC_OBS_PROF_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "src/obs/metrics.h"

namespace oasis {
namespace prof {

// Order is the OASIS_PROF row's choice order.
enum class ProfMode {
  kOff,
  kSummary,  // histograms + counters, stderr report
};

const char* ProfModeName(ProfMode mode);

// The instrumented wall-clock phases.
enum class Phase : int {
  kRunParallel = 0,  // one exp::RunOrdered batch, end to end (calling thread)
  kRunSetup,         // run-local obs::RunContext construction (serial)
  kRunSim,           // one batch task, e.g. a ClusterSimulation::Run
  kRunMerge,         // serial index-order merge of run contexts
  kRunContextCtor,   // one obs::RunContext construction
  kPoolTaskRun,      // one batch task on a worker thread (busy)
  kPoolIdle,         // a worker's wait from its last task to the batch end
  kSimHeapPop,       // event-queue pop                  [per event]
  kSimDispatch,      // ClusterManager::Dispatch         [per event]
  kPhaseCount,
};
inline constexpr int kNumPhases = static_cast<int>(Phase::kPhaseCount);

const char* PhaseName(Phase phase);

// Counters, accumulated per thread like the phases. The batch runner has no
// queues to steal from and no wake protocol, so kPoolSteals and kPoolWakes
// are never incremented; they stay (after the live counters, outside the
// report's counter block) because perfbench/oasis_bench.cpp still reads
// them.
enum class Count : int {
  kTasksRun = 0,  // batch tasks run on a worker thread
  kRunContexts,   // obs::RunContext constructions
  kPoolSteals,    // retired, always 0
  kPoolWakes,     // retired, always 0
  kCountCount,
};
inline constexpr int kNumCounts = static_cast<int>(Count::kCountCount);
inline constexpr int kNumLiveCounts = static_cast<int>(Count::kPoolSteals);

// One aggregated phase in a Report. Durations in seconds.
struct PhaseStats {
  const char* name = "";
  uint64_t count = 0;
  double total_s = 0.0;
  double mean_s = 0.0;
  double p50_s = 0.0;
  double p95_s = 0.0;
  double p99_s = 0.0;
  double max_s = 0.0;
};

// One recording thread's roll-up (buffers with the same label merge).
struct WorkerRow {
  std::string label;
  uint64_t tasks = 0;
  double busy_s = 0.0;  // kPoolTaskRun total
  double idle_s = 0.0;  // kPoolIdle total
};

// The wall-clock diagnosis perf_sweep embeds in BENCH_sweep.json. The
// scaling decomposition is phrased against the profiled RunOrdered wall
// time: parallel_efficiency = worker busy / (jobs * wall); the serial
// fractions say where the non-parallel wall went.
struct Report {
  ProfMode mode = ProfMode::kOff;
  int jobs = 0;
  double wall_s = 0.0;  // total kRunParallel time in the collection window
  std::vector<PhaseStats> phases;          // only phases with samples
  std::array<uint64_t, kNumCounts> counts{};
  std::vector<WorkerRow> workers;          // only batch worker threads
  double parallel_efficiency = 0.0;
  double merge_serial_fraction = 0.0;  // kRunMerge total / wall
  double setup_fraction = 0.0;         // kRunSetup total / wall
  double worker_idle_share = 0.0;      // idle / (busy + idle) across workers
  const char* bottleneck = "";         // named top scaling loss
  // Observability drop accounting (satellite of the same PR): nonzero means
  // the exported trace/metrics silently lost data.
  uint64_t trace_dropped = 0;
  uint64_t metrics_merge_dropped = 0;

  bool HasSamples() const { return !phases.empty(); }

  // Human-readable table, each line tagged "[prof]" (stderr channel).
  void WriteTable(std::ostream& out) const;
  // JSON object (no trailing newline); `indent` spaces prefix every line.
  void WriteJson(std::ostream& out, int indent) const;
};

class Profiler {
 public:
  static Profiler& Instance();

  // The hot-path gate: one relaxed atomic load, zero clock reads when off.
  static bool Enabled() {
    return Instance().mode_.load(std::memory_order_relaxed) != ProfMode::kOff;
  }
  ProfMode mode() const { return mode_.load(std::memory_order_relaxed); }
  void SetMode(ProfMode mode);

  // Monotonic nanoseconds (std::chrono::steady_clock).
  static uint64_t NowNs();

  // Records one completed span into the calling thread's histogram. No-op
  // when the profiler is off.
  void RecordSpan(Phase phase, uint64_t start_ns, uint64_t end_ns);
  void AddCount(Count count, uint64_t n = 1);

  // Labels the calling thread's buffer ("main", "worker3", ...) for the
  // per-worker report rows.
  void LabelCurrentThread(const char* prefix, int index = -1);

  // Remembers the worker count of the most recent parallel region, for the
  // report's efficiency denominator.
  void NoteJobs(int jobs);

  // Rolls every thread buffer into a Report. With `reset` the buffers are
  // zeroed afterwards, opening a fresh collection window (bench/perf_sweep
  // collects once per sweep point). Must not run concurrently with
  // recording threads.
  Report Collect(bool reset);

  // Zeroes every thread buffer without reporting.
  void Reset();

 private:
  struct ThreadProf;

  Profiler() = default;
  ThreadProf* BufferForThisThread();

  std::atomic<ProfMode> mode_{ProfMode::kOff};
  std::atomic<int> jobs_{1};
  std::mutex mu_;          // guards buffers_ registration and Collect/Reset
  std::vector<std::unique_ptr<ThreadProf>> buffers_;
};

// RAII phase timer. Reads the clock only when the profiler is enabled at
// construction; a mode flip mid-scope still records (the sample is already
// paid for) — flips only happen at session boundaries anyway.
class ProfScope {
 public:
  explicit ProfScope(Phase phase) : phase_(phase) {
    if (Profiler::Enabled()) {
      start_ns_ = Profiler::NowNs();
      armed_ = true;
    }
  }
  ~ProfScope() {
    if (armed_) {
      Profiler::Instance().RecordSpan(phase_, start_ns_, Profiler::NowNs());
    }
  }
  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

 private:
  Phase phase_;
  uint64_t start_ns_ = 0;
  bool armed_ = false;
};

}  // namespace prof
}  // namespace oasis

#endif  // OASIS_SRC_OBS_PROF_H_
