#include "src/sim/simulator.h"

#include <cassert>
#include <string>

#include "src/check/check.h"
#include "src/common/log.h"
#include "src/obs/metrics.h"
#include "src/obs/prof.h"
#include "src/obs/trace.h"

namespace oasis {

void Simulator::ScheduleAfter(SimTime delay, Event ev) {
  assert(delay >= SimTime::Zero() && "negative delay");
  queue_.Schedule(now_ + delay, ev);
}

void Simulator::ScheduleAt(SimTime when, Event ev) {
  if (check::InvariantChecker* c = check::InvariantChecker::IfEnabled()) {
    if (when < now_) {
      c->Report("sim.schedule_into_past", now_,
                "event scheduled at " + std::to_string(when.micros()) +
                    " us, before now=" + std::to_string(now_.micros()) + " us");
    }
  }
  assert(when >= now_ && "scheduling into the past");
  queue_.Schedule(when, ev);
}

void Simulator::ScheduleKeyed(SimTime when, uint64_t seq, Event ev) {
  assert(when >= now_ && "scheduling into the past");
  queue_.ScheduleKeyed(when, seq, ev);
}

void Simulator::RunUntil(SimTime deadline, const Dispatcher& dispatch) {
  // The hot dispatch loop. Observability gates (profiler, checker, metrics,
  // tracer) are resolved once here instead of per event; collectors are
  // configured before a run starts and never flip mid-run. The
  // sim.events_dispatched counter is accumulated locally and flushed on
  // exit (the registry is only exported after the run returns). The
  // queue-depth gauge keeps its per-pop store: the OASIS_METRICS export
  // shows its last value, the depth after the final pop and before that
  // event's own schedules. No metric digest folds it.
  const bool profiling = prof::Profiler::Enabled();
  check::InvariantChecker* checker = check::InvariantChecker::IfEnabled();
  obs::MetricsRegistry* metrics = obs::MetricsRegistry::IfEnabled();
  obs::Counter* dispatched_counter =
      metrics != nullptr ? metrics->counter("sim.events_dispatched") : nullptr;
  obs::Gauge* depth_gauge = metrics != nullptr ? metrics->gauge("sim.queue_depth") : nullptr;
  obs::Tracer* tracer = obs::Tracer::IfEnabled();
  uint64_t batched = 0;
  while (!queue_.empty() && queue_.NextTime() <= deadline) {
    // Wall-clock attribution of the event loop (OASIS_PROF): queue
    // maintenance vs. dispatch.
    const uint64_t t_pop = profiling ? prof::Profiler::NowNs() : 0;
    EventQueue::Popped ev = queue_.Pop();
    const uint64_t t_run = profiling ? prof::Profiler::NowNs() : 0;
    if (profiling) {
      prof::Profiler::Instance().RecordSpan(prof::Phase::kSimHeapPop, t_pop, t_run);
    }
    if (checker != nullptr && ev.time < now_) {
      checker->Report("sim.event_time_monotonic", now_,
                      "popped event at " + std::to_string(ev.time.micros()) +
                          " us behind clock " + std::to_string(now_.micros()) + " us");
    }
    assert(ev.time >= now_);
    now_ = ev.time;
    seq_ = ev.seq;
    SetLogSimTime(now_);
    ++dispatched_;
    ++batched;
    if (depth_gauge != nullptr) {
      depth_gauge->Set(static_cast<double>(queue_.size()));
    }
    // Sample the queue-depth counter track; every dispatch would flood the
    // bounded ring and evict the spans the track is meant to contextualize.
    if (tracer != nullptr && (dispatched_ & 0x3f) == 0) {
      tracer->CounterValue("sim", "queue_depth", now_, static_cast<int64_t>(queue_.size()));
    }
    dispatch(ev.event);
    if (profiling) {
      prof::Profiler::Instance().RecordSpan(prof::Phase::kSimDispatch, t_run,
                                            prof::Profiler::NowNs());
    }
  }
  seq_ = UINT64_MAX;
  if (dispatched_counter != nullptr && batched > 0) {
    dispatched_counter->Increment(batched);
  }
  if (now_ < deadline) {
    now_ = deadline;
  }
}

}  // namespace oasis
