#include "src/obs/prof.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <map>

#include "src/common/knobs.h"
#include "src/obs/trace.h"

namespace oasis {
namespace prof {
namespace {

// Order must match enum Phase.
constexpr const char* kPhaseName[kNumPhases] = {
    "exp.run_parallel", "exp.run_setup", "exp.run_sim",  "exp.merge",    "obs.run_context_ctor",
    "pool.task_run",    "pool.idle",     "sim.heap_pop", "sim.dispatch",
};

// Order must match enum Count.
constexpr const char* kCountName[kNumCounts] = {
    "pool.tasks", "obs.run_contexts", "pool.steals", "pool.wakes",
};

}  // namespace

const char* ProfModeName(ProfMode mode) {
  switch (mode) {
    case ProfMode::kOff:
      return "off";
    case ProfMode::kSummary:
      return "summary";
  }
  return "?";
}

const char* PhaseName(Phase phase) { return kPhaseName[static_cast<int>(phase)]; }

const char* CountName(Count count) { return kCountName[static_cast<int>(count)]; }

ProfConfig ProfConfig::FromEnv() {
  ProfConfig config;
  config.mode = static_cast<ProfMode>(knobs::Choice(knobs::Knob::kProf).value_or(0));
  return config;
}

// --- Profiler ----------------------------------------------------------------

struct Profiler::ThreadProf {
  explicit ThreadProf(int index) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "thread-%d", index);
    label = buf;
    for (int p = 0; p < kNumPhases; ++p) {
      hist[p] = registry.histogram(kPhaseName[p]);
    }
  }

  std::string label;  // written by the owner thread only
  obs::MetricsRegistry registry;
  std::array<obs::Histogram*, kNumPhases> hist{};
  std::array<uint64_t, kNumCounts> counts{};

  void ResetValues() {
    registry.ResetValues();
    counts.fill(0);
  }
};

Profiler& Profiler::Instance() {
  static Profiler* profiler = new Profiler();  // never destroyed
  return *profiler;
}

uint64_t Profiler::NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

void Profiler::SetMode(ProfMode mode) { mode_.store(mode, std::memory_order_relaxed); }

Profiler::ThreadProf* Profiler::BufferForThisThread() {
  // Cached per thread: after first-use registration (the only lock), every
  // record is a plain write into a buffer this thread owns outright.
  static thread_local ThreadProf* t_prof = nullptr;
  if (t_prof == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<ThreadProf>(static_cast<int>(buffers_.size())));
    t_prof = buffers_.back().get();
  }
  return t_prof;
}

void Profiler::RecordSpan(Phase phase, uint64_t start_ns, uint64_t end_ns) {
  if (mode_.load(std::memory_order_relaxed) == ProfMode::kOff) {
    return;
  }
  uint64_t dur_ns = end_ns >= start_ns ? end_ns - start_ns : 0;
  BufferForThisThread()->hist[static_cast<int>(phase)]->Record(static_cast<double>(dur_ns) *
                                                               1e-9);
}

void Profiler::AddCount(Count count, uint64_t n) {
  if (mode_.load(std::memory_order_relaxed) == ProfMode::kOff) {
    return;
  }
  BufferForThisThread()->counts[static_cast<int>(count)] += n;
}

void Profiler::LabelCurrentThread(const char* prefix, int index) {
  if (mode_.load(std::memory_order_relaxed) == ProfMode::kOff) {
    return;
  }
  ThreadProf* buf = BufferForThisThread();
  if (index >= 0) {
    char label[48];
    std::snprintf(label, sizeof(label), "%s%d", prefix, index);
    buf->label = label;
  } else {
    buf->label = prefix;
  }
}

void Profiler::NoteJobs(int jobs) { jobs_.store(jobs, std::memory_order_relaxed); }

void Profiler::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& buf : buffers_) {
    buf->ResetValues();
  }
}

Report Profiler::Collect(bool reset) {
  std::lock_guard<std::mutex> lock(mu_);
  Report report;
  report.mode = mode_.load(std::memory_order_relaxed);
  report.jobs = jobs_.load(std::memory_order_relaxed);

  report.trace_dropped = obs::Tracer::Global().dropped();
  report.metrics_merge_dropped = obs::MetricsRegistry::Global().merge_dropped();

  // Merge every thread's histograms bucket-wise, then summarize the phases
  // that actually ran.
  obs::MetricsRegistry merged;
  for (const auto& buf : buffers_) {
    merged.MergeFrom(buf->registry);
  }
  std::array<double, kNumPhases> totals{};
  for (int p = 0; p < kNumPhases; ++p) {
    const obs::Histogram* h = merged.histogram(kPhaseName[p]);
    if (h == nullptr || h->count() == 0) {
      continue;
    }
    totals[p] = h->sum();
    PhaseStats stats;
    stats.name = kPhaseName[p];
    stats.count = h->count();
    stats.total_s = h->sum();
    stats.mean_s = h->mean();
    stats.p50_s = h->Percentile(50.0);
    stats.p95_s = h->Percentile(95.0);
    stats.p99_s = h->Percentile(99.0);
    stats.max_s = h->max();
    report.phases.push_back(stats);
  }
  std::sort(report.phases.begin(), report.phases.end(),
            [](const PhaseStats& a, const PhaseStats& b) { return a.total_s > b.total_s; });

  for (const auto& buf : buffers_) {
    for (int c = 0; c < kNumCounts; ++c) {
      report.counts[c] += buf->counts[c];
    }
  }

  // Per-worker rows: every buffer that ran batch tasks, merged by label
  // (each batch starts fresh threads, so "worker0" may span several
  // buffers).
  std::map<std::string, WorkerRow> by_label;
  for (const auto& buf : buffers_) {
    const obs::Histogram* busy = buf->hist[static_cast<int>(Phase::kPoolTaskRun)];
    const obs::Histogram* idle = buf->hist[static_cast<int>(Phase::kPoolIdle)];
    if (busy->count() == 0 && idle->count() == 0) {
      continue;
    }
    WorkerRow& row = by_label[buf->label];
    row.label = buf->label;
    row.tasks += buf->counts[static_cast<int>(Count::kTasksRun)];
    row.busy_s += busy->sum();
    row.idle_s += idle->sum();
  }
  for (auto& [label, row] : by_label) {
    report.workers.push_back(row);
  }

  // Scaling decomposition against the profiled RunOrdered wall time. The
  // inline (one-worker) path records no pool phases, so "busy" falls back to the
  // simulation time itself and efficiency reads as sim-share of wall.
  report.wall_s = totals[static_cast<int>(Phase::kRunParallel)];
  double busy = totals[static_cast<int>(Phase::kPoolTaskRun)];
  if (busy == 0.0) {
    busy = totals[static_cast<int>(Phase::kRunSim)];
  }
  double idle = totals[static_cast<int>(Phase::kPoolIdle)];
  if (report.wall_s > 0.0 && report.jobs > 0) {
    report.parallel_efficiency = busy / (report.wall_s * report.jobs);
    report.merge_serial_fraction = totals[static_cast<int>(Phase::kRunMerge)] / report.wall_s;
    report.setup_fraction = totals[static_cast<int>(Phase::kRunSetup)] / report.wall_s;
  }
  if (busy + idle > 0.0) {
    report.worker_idle_share = idle / (busy + idle);
  }
  if (report.wall_s <= 0.0) {
    report.bottleneck = "";
  } else if (report.parallel_efficiency >= 0.9) {
    report.bottleneck = "none (near-linear scaling)";
  } else {
    report.bottleneck = "worker idle (work starvation / imbalance)";
    double top = report.worker_idle_share;
    if (report.merge_serial_fraction > top) {
      top = report.merge_serial_fraction;
      report.bottleneck = "serial merge phase";
    }
    if (report.setup_fraction > top) {
      report.bottleneck = "serial setup (RunContext construction)";
    }
  }

  if (reset) {
    for (auto& buf : buffers_) {
      buf->ResetValues();
    }
  }
  return report;
}

// --- Report ------------------------------------------------------------------

void Report::WriteTable(std::ostream& out) const {
  char line[256];
  std::snprintf(line, sizeof(line),
                "[prof] wall-clock profile: mode=%s jobs=%d wall=%.3fs\n",
                ProfModeName(mode), jobs, wall_s);
  out << line;
  std::snprintf(line, sizeof(line), "[prof]   %-22s %10s %10s %7s %11s %11s %11s %11s\n",
                "phase", "count", "total_s", "share", "p50_us", "p95_us", "p99_us",
                "max_us");
  out << line;
  for (const PhaseStats& p : phases) {
    std::snprintf(line, sizeof(line),
                  "[prof]   %-22s %10llu %10.3f %6.1f%% %11.1f %11.1f %11.1f %11.1f\n",
                  p.name, static_cast<unsigned long long>(p.count), p.total_s,
                  wall_s > 0.0 ? 100.0 * p.total_s / wall_s : 0.0, p.p50_s * 1e6,
                  p.p95_s * 1e6, p.p99_s * 1e6, p.max_s * 1e6);
    out << line;
  }
  for (const WorkerRow& w : workers) {
    std::snprintf(line, sizeof(line),
                  "[prof]   %-10s tasks=%-5llu busy=%8.3fs idle=%8.3fs "
                  "idle_share=%5.1f%%\n",
                  w.label.c_str(), static_cast<unsigned long long>(w.tasks), w.busy_s,
                  w.idle_s,
                  w.busy_s + w.idle_s > 0.0 ? 100.0 * w.idle_s / (w.busy_s + w.idle_s) : 0.0);
    out << line;
  }
  bool counts_present = false;
  for (int c = 0; c < kNumLiveCounts; ++c) {
    counts_present = counts_present || counts[c] != 0;
  }
  if (counts_present) {
    out << "[prof]   counters:";
    for (int c = 0; c < kNumLiveCounts; ++c) {
      if (counts[c] != 0) {
        std::snprintf(line, sizeof(line), " %s=%llu", kCountName[c],
                      static_cast<unsigned long long>(counts[c]));
        out << line;
      }
    }
    out << '\n';
  }
  std::snprintf(line, sizeof(line),
                "[prof] parallel efficiency %.2f | merge-serial fraction %.1f%% | setup "
                "fraction %.1f%% | worker idle share %.1f%%\n",
                parallel_efficiency, merge_serial_fraction * 100.0, setup_fraction * 100.0,
                worker_idle_share * 100.0);
  out << line;
  if (bottleneck[0] != '\0') {
    out << "[prof] top scaling bottleneck: " << bottleneck << '\n';
  }
  if (trace_dropped != 0) {
    std::snprintf(line, sizeof(line),
                  "[prof] WARNING: trace ring dropped %llu events — the exported trace is "
                  "truncated (raise OASIS_TRACE_CAPACITY)\n",
                  static_cast<unsigned long long>(trace_dropped));
    out << line;
  }
  if (metrics_merge_dropped != 0) {
    std::snprintf(line, sizeof(line),
                  "[prof] WARNING: metrics merge dropped %llu instruments (kind mismatch "
                  "across run registries)\n",
                  static_cast<unsigned long long>(metrics_merge_dropped));
    out << line;
  }
}

void Report::WriteJson(std::ostream& out, int indent) const {
  std::string pad(static_cast<size_t>(indent), ' ');
  out << pad << "{\n";
  out << pad << "  \"mode\": \"" << ProfModeName(mode) << "\",\n";
  out << pad << "  \"jobs\": " << jobs << ",\n";
  out << pad << "  \"wall_s\": " << wall_s << ",\n";
  out << pad << "  \"parallel_efficiency\": " << parallel_efficiency << ",\n";
  out << pad << "  \"merge_serial_fraction\": " << merge_serial_fraction << ",\n";
  out << pad << "  \"setup_fraction\": " << setup_fraction << ",\n";
  out << pad << "  \"worker_idle_share\": " << worker_idle_share << ",\n";
  out << pad << "  \"bottleneck\": \"" << bottleneck << "\",\n";
  out << pad << "  \"trace_dropped\": " << trace_dropped << ",\n";
  out << pad << "  \"metrics_merge_dropped\": " << metrics_merge_dropped << ",\n";
  out << pad << "  \"counters\": {";
  for (int c = 0; c < kNumLiveCounts; ++c) {
    out << (c > 0 ? ", " : "") << '"' << kCountName[c] << "\": " << counts[c];
  }
  out << "},\n";
  out << pad << "  \"phases\": [";
  for (size_t i = 0; i < phases.size(); ++i) {
    const PhaseStats& p = phases[i];
    out << (i > 0 ? "," : "") << "\n"
        << pad << "    {\"name\": \"" << p.name << "\", \"count\": " << p.count
        << ", \"total_s\": " << p.total_s << ", \"mean_s\": " << p.mean_s
        << ", \"p50_s\": " << p.p50_s << ", \"p95_s\": " << p.p95_s
        << ", \"p99_s\": " << p.p99_s << ", \"max_s\": " << p.max_s << "}";
  }
  out << (phases.empty() ? "]" : "\n" + pad + "  ]") << ",\n";
  out << pad << "  \"workers\": [";
  for (size_t i = 0; i < workers.size(); ++i) {
    const WorkerRow& w = workers[i];
    out << (i > 0 ? "," : "") << "\n"
        << pad << "    {\"label\": \"" << w.label << "\", \"tasks\": " << w.tasks
        << ", \"busy_s\": " << w.busy_s
        << ", \"idle_s\": " << w.idle_s << "}";
  }
  out << (workers.empty() ? "]" : "\n" + pad + "  ]") << "\n";
  out << pad << "}";
}

// --- ProfSession -------------------------------------------------------------

ProfSession::ProfSession(const ProfConfig& config) : config_(config) {
  Profiler& profiler = Profiler::Instance();
  profiler.SetMode(config_.mode);
  if (config_.Enabled()) {
    profiler.Reset();
    profiler.LabelCurrentThread("main");
  }
}

void ProfSession::Finish() {
  if (finished_) {
    return;
  }
  finished_ = true;
  if (!config_.Enabled()) {
    return;
  }
  Profiler& profiler = Profiler::Instance();
  Report report = profiler.Collect(/*reset=*/true);
  if (report.HasSamples()) {
    report.WriteTable(std::cerr);
  }
  profiler.SetMode(ProfMode::kOff);
}

ProfSession::~ProfSession() { Finish(); }

}  // namespace prof
}  // namespace oasis
