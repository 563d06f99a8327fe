// The simulation clock and run loop.
//
// A Simulator owns an EventQueue and a monotone clock. Components schedule
// events (plain data, see event_queue.h) relative to `now()`; RunUntil pops
// them up to a deadline and hands each to the caller's dispatcher. The run
// loop's tracer and metrics registry are the ones Tracer::IfEnabled() /
// MetricsRegistry::IfEnabled() resolve for the calling thread: a run-local
// obs::RunContext installed by exp::RunOrdered, else the process globals.

#ifndef OASIS_SRC_SIM_SIMULATOR_H_
#define OASIS_SRC_SIM_SIMULATOR_H_

#include <cstdint>
#include <functional>

#include "src/common/units.h"
#include "src/sim/event_queue.h"

namespace oasis {

class Simulator {
 public:
  // Runs one popped event; the clock and current_seq() are already its own.
  using Dispatcher = std::function<void(const Event&)>;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }

  // Schedules `ev` after `delay` from now (delay must be >= 0).
  void ScheduleAfter(SimTime delay, Event ev);

  // Schedules `ev` at the absolute time `when` (must be >= now).
  void ScheduleAt(SimTime when, Event ev);

  // Takes the sequence number the next scheduled event would get, so a
  // caller can hold a key (time, seq) that orders against queued events
  // exactly as an event scheduled now would, without scheduling one.
  uint64_t ReserveSeq() { return queue_.ReserveSeq(); }
  // Schedules `ev` at the key (`when`, `seq`); `seq` must come from
  // ReserveSeq and `when` must be >= now.
  void ScheduleKeyed(SimTime when, uint64_t seq, Event ev);
  // The sequence number of the event being dispatched, so (now(),
  // current_seq()) is its key. Between runs it is UINT64_MAX: every event
  // at or before now() has run.
  uint64_t current_seq() const { return seq_; }

  // Dispatches every event at or before `deadline` (events scheduled
  // exactly at the deadline still run, and so do those they schedule there)
  // and then advances the clock to `deadline`, even when the queue empties
  // earlier. Later events stay queued.
  void RunUntil(SimTime deadline, const Dispatcher& dispatch);

  size_t pending_events() const { return queue_.size(); }

  uint64_t events_dispatched() const { return dispatched_; }

 private:
  EventQueue queue_;
  SimTime now_ = SimTime::Zero();
  uint64_t seq_ = UINT64_MAX;
  uint64_t dispatched_ = 0;
};

}  // namespace oasis

#endif  // OASIS_SRC_SIM_SIMULATOR_H_
