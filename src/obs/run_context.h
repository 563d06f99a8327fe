// Run-local observability: one tracer + metrics registry per simulation run.
//
// The process-global Tracer/MetricsRegistry singletons are single-writer by
// design — fine for one simulation per process, a data race the moment the
// experiment runner (src/exp) executes independent runs on worker threads.
// A RunContext owns a private Tracer and MetricsRegistry; installing it
// (RAII, per thread) reroutes every instrumentation site that goes through
// Tracer::IfEnabled() / MetricsRegistry::IfEnabled() to the run-local
// collectors, with zero changes at the sites themselves.
//
// When no context is installed (code outside the batch runner, and every
// batch run while both global collectors are dark) the globals are used.
//
// Ownership rules (see DESIGN.md § Performance & parallel experiments):
//   * the RunContext must outlive the run it is installed for;
//   * at most one run per thread, one thread per run — contexts are not
//     shared across threads;
//   * after the run, exp::RunOrdered merges the collected data into the
//     globals in index order, so exported trace and metrics files are
//     byte-identical at every job count.

#ifndef OASIS_SRC_OBS_RUN_CONTEXT_H_
#define OASIS_SRC_OBS_RUN_CONTEXT_H_

#include <string>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace oasis {
namespace obs {

class RunContext {
 public:
  // Copies the global tracer's ring capacity and both process-wide enable
  // switches, so the run retains exactly the events a run recording
  // straight into the globals would have left in the global ring.
  RunContext();
  RunContext(const RunContext&) = delete;
  RunContext& operator=(const RunContext&) = delete;

  Tracer& tracer() { return tracer_; }
  MetricsRegistry& metrics() { return metrics_; }

  // Appends this run's trace events and folds its metrics into the global
  // collectors (no-op for a collector whose global twin is disabled), the
  // metrics under `metrics_prefix` (e.g. "dc.rack3.", per-shard namespacing
  // for the datacenter tier). Trace events append unprefixed: they already
  // carry sim-time and per-run ordering.
  void MergeIntoGlobals(const std::string& metrics_prefix);

  // The context installed on this thread, nullptr when instrumentation goes
  // to the globals.
  static RunContext* Current();

  // RAII install/uninstall on the current thread; nests (restores the
  // previously installed context).
  class Scope {
   public:
    explicit Scope(RunContext* context);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    RunContext* previous_;
  };

 private:
  Tracer tracer_;
  MetricsRegistry metrics_;
};

}  // namespace obs
}  // namespace oasis

#endif  // OASIS_SRC_OBS_RUN_CONTEXT_H_
