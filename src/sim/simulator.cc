#include "src/sim/simulator.h"

#include <cassert>
#include <string>
#include <utility>

#include "src/check/check.h"
#include "src/common/log.h"
#include "src/obs/prof.h"
#include "src/obs/trace.h"

namespace oasis {

EventId Simulator::ScheduleAfter(SimTime delay, EventFn fn) {
  assert(delay >= SimTime::Zero() && "negative delay");
  return queue_.Schedule(now_ + delay, std::move(fn));
}

EventId Simulator::ScheduleAt(SimTime when, EventFn fn) {
  if (check::InvariantChecker* c = check::InvariantChecker::IfEnabled()) {
    if (when < now_) {
      c->Report("sim.schedule_into_past", now_,
                "event scheduled at " + std::to_string(when.micros()) +
                    " us, before now=" + std::to_string(now_.micros()) + " us");
    }
  }
  assert(when >= now_ && "scheduling into the past");
  return queue_.Schedule(when, std::move(fn));
}

Simulator::PeriodicHandle Simulator::SchedulePeriodic(SimTime first_delay, SimTime period,
                                                      std::function<void(SimTime)> fn) {
  assert(period > SimTime::Zero());
  auto alive = std::make_shared<bool>(true);
  // The re-arming closure owns the user callback and the liveness flag. It
  // refers to itself only weakly; the strong reference lives in the queued
  // wrapper, so the chain is freed once no firing is pending (a self-capture
  // would be a shared_ptr cycle and leak every periodic task).
  auto rearm = std::make_shared<std::function<void()>>();
  std::weak_ptr<std::function<void()>> weak_rearm = rearm;
  *rearm = [this, alive, period, fn = std::move(fn), weak_rearm]() {
    if (!*alive) {
      return;
    }
    fn(now_);
    if (*alive) {
      if (auto self = weak_rearm.lock()) {
        ScheduleAfter(period, [self]() { (*self)(); });
      }
    }
  };
  ScheduleAfter(first_delay, [rearm]() { (*rearm)(); });
  return PeriodicHandle{std::move(alive)};
}

void Simulator::RunUntil(SimTime deadline) {
  RunLoop(deadline);
  if (now_ < deadline) {
    now_ = deadline;
  }
}

void Simulator::RunToCompletion() { RunLoop(SimTime::Max()); }

void Simulator::RunLoop(SimTime deadline) {
  // The hot dispatch loop. Observability gates (profiler, checker, metrics,
  // tracer) are resolved once here instead of per event; collectors are
  // configured before a run starts and never flip mid-run, which is what
  // makes this equivalent to the per-event resolution in Step(). The
  // sim.events_dispatched counter is accumulated locally and flushed on
  // exit (the registry is only exported after the run returns); the
  // queue-depth gauge keeps its per-pop store because its last-written
  // value — depth after the final pop, before that event's own schedules —
  // is pinned by the metric digests.
  const bool profiling = prof::Profiler::Enabled();
  check::InvariantChecker* checker = check::InvariantChecker::IfEnabled();
  obs::Counter* dispatched_counter =
      EffectiveMetrics() != nullptr ? dispatched_counter_ : nullptr;
  obs::Gauge* depth_gauge = dispatched_counter != nullptr ? depth_gauge_ : nullptr;
  obs::Tracer* tracer =
      run_context_ != nullptr
          ? (run_context_->tracer().enabled() ? &run_context_->tracer() : nullptr)
          : obs::Tracer::IfEnabled();
  uint64_t batched = 0;
  while (!queue_.empty() && queue_.NextTime() <= deadline) {
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
    SetLogSimTime(now_);
    ++dispatched_;
    ++batched;
    if (depth_gauge != nullptr) {
      depth_gauge->Set(static_cast<double>(queue_.size()));
    }
    if (tracer != nullptr && (dispatched_ & 0x3f) == 0) {
      tracer->CounterValue("sim", "queue_depth", now_, static_cast<int64_t>(queue_.size()));
    }
    ev.fn();
    if (profiling) {
      prof::Profiler::Instance().RecordSpan(prof::Phase::kSimDispatch, t_run,
                                            prof::Profiler::NowNs());
    }
  }
  if (dispatched_counter != nullptr && batched > 0) {
    dispatched_counter->Increment(batched);
  }
}

obs::MetricsRegistry* Simulator::EffectiveMetrics() {
  obs::MetricsRegistry* registry =
      run_context_ != nullptr
          ? (run_context_->metrics().enabled() ? &run_context_->metrics() : nullptr)
          : obs::MetricsRegistry::IfEnabled();
  if (registry != nullptr && registry != metrics_source_) {
    metrics_source_ = registry;
    dispatched_counter_ = registry->counter("sim.events_dispatched");
    depth_gauge_ = registry->gauge("sim.queue_depth");
  }
  return registry;
}

bool Simulator::Step() {
  if (queue_.empty()) {
    return false;
  }
  // Wall-clock attribution of the event loop (OASIS_PROF): queue maintenance
  // vs. closure execution. Three clock reads per event when profiling, zero
  // when off — the gate is one relaxed atomic load.
  const bool profiling = prof::Profiler::Enabled();
  const uint64_t t_pop = profiling ? prof::Profiler::NowNs() : 0;
  EventQueue::Popped ev = queue_.Pop();
  const uint64_t t_run = profiling ? prof::Profiler::NowNs() : 0;
  if (profiling) {
    prof::Profiler::Instance().RecordSpan(prof::Phase::kSimHeapPop, t_pop, t_run);
  }
  if (check::InvariantChecker* c = check::InvariantChecker::IfEnabled()) {
    // Event-queue sim-time monotonicity: dispatch order must never move the
    // clock backwards. Per-event hot path, so only the failure reports; the
    // passing case costs the IfEnabled load and one predicted branch.
    if (ev.time < now_) {
      c->Report("sim.event_time_monotonic", now_,
                "popped event at " + std::to_string(ev.time.micros()) +
                    " us behind clock " + std::to_string(now_.micros()) + " us");
    }
  }
  assert(ev.time >= now_);
  now_ = ev.time;
  SetLogSimTime(now_);
  ++dispatched_;
  if (EffectiveMetrics() != nullptr) {
    dispatched_counter_->Increment();
    depth_gauge_->Set(static_cast<double>(queue_.size()));
  }
  obs::Tracer* tracer =
      run_context_ != nullptr
          ? (run_context_->tracer().enabled() ? &run_context_->tracer() : nullptr)
          : obs::Tracer::IfEnabled();
  if (tracer != nullptr) {
    // Sample the queue-depth counter track; every dispatch would flood the
    // bounded ring and evict the spans the track is meant to contextualize.
    if ((dispatched_ & 0x3f) == 0) {
      tracer->CounterValue("sim", "queue_depth", now_, static_cast<int64_t>(queue_.size()));
    }
  }
  ev.fn();
  if (profiling) {
    prof::Profiler::Instance().RecordSpan(prof::Phase::kSimDispatch, t_run,
                                          prof::Profiler::NowNs());
  }
  return true;
}

}  // namespace oasis
