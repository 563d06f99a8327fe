// Piecewise-constant energy integration.
//
// Every powered component (host, memory server) owns an EnergyMeter; state
// machines call SetDraw whenever their power changes, and the meter
// accumulates joules exactly over the piecewise-constant timeline. A
// per-state time ledger supports the sleep-fraction and powered-host
// reporting in §5.

#ifndef OASIS_SRC_POWER_ENERGY_METER_H_
#define OASIS_SRC_POWER_ENERGY_METER_H_

#include <array>
#include <cassert>
#include <cstdint>

#include "src/common/units.h"
#include "src/power/power_model.h"

namespace oasis {

class EnergyMeter {
 public:
  // Starts metering at `start` with the given draw.
  EnergyMeter(SimTime start, Watts initial_draw)
      : last_change_(start), current_draw_(initial_draw) {}
  EnergyMeter() : EnergyMeter(SimTime::Zero(), 0.0) {}

  // Changes the draw at time `now` (now must be monotone).
  void SetDraw(SimTime now, Watts draw);

  // The lazy form, for an owner whose draw is a function of its own state
  // (ClusterHost). Before each change the owner closes the open segment at
  // `now`, priced at draw(): the draw of the state that held since the
  // segment opened, which no change has touched yet. A segment that opened
  // at `now` is left as it is and draw() is not evaluated, so the owner pays
  // for one draw per instant however many changes land on it. The joules are
  // bit for bit those of SetDraw after every change: the boundaries are the
  // same, and each same-instant SetDraw adds draw x 0 = +0.0 J, which holds
  // for every finite draw (ClusterConfig::Validate admits no other).
  // current_draw() then goes unused; EnergyAt takes the owner's draw.
  template <typename DrawFn>
  void CloseSegment(SimTime now, DrawFn draw) {
    assert(now >= last_change_ && "meter time went backwards");
    if (now > last_change_) {
      joules_ += EnergyOver(draw(), now - last_change_);
      last_change_ = now;
    }
  }

  // Accrues energy up to `now` without changing the draw.
  void Advance(SimTime now);

  Joules total_joules() const { return joules_; }
  Watts current_draw() const { return current_draw_; }

  // Energy accrued through `now` without mutating the meter — the invariant
  // checker's view, guaranteed free of side effects on the simulation.
  Joules EnergyAt(SimTime now) const { return EnergyAt(now, current_draw_); }
  // The same with the open segment priced at `draw` (the lazy form's view).
  Joules EnergyAt(SimTime now, Watts draw) const {
    return now > last_change_ ? joules_ + EnergyOver(draw, now - last_change_) : joules_;
  }

 private:
  SimTime last_change_;
  Watts current_draw_;
  Joules joules_ = 0.0;
};

// Tracks how long a host spends in each power state. When a trace host id is
// set, completed S3 phases (suspend, resume) are emitted as spans on the
// global tracer and every state change as an instant event, which is how the
// Fig 11 transition storms become visible in Perfetto.
class StateTimeLedger {
 public:
  StateTimeLedger(SimTime start, HostPowerState initial)
      : last_change_(start), state_(initial) {}
  StateTimeLedger() : StateTimeLedger(SimTime::Zero(), HostPowerState::kPowered) {}

  void Transition(SimTime now, HostPowerState next);
  void Advance(SimTime now);

  SimTime TimeIn(HostPowerState s) const;
  HostPowerState state() const { return state_; }
  double SleepFraction(SimTime horizon) const;
  // Total time across all states since construction (call Advance first).
  // The chaos tests use it to assert the time accounting still balances
  // after injected crashes: every host's ledger must cover the full run.
  SimTime TotalTime() const;

  // Side-effect-free views through `now`: the recorded tallies plus the
  // still-open segment. Integer microsecond arithmetic, so the invariant
  // checker can require TotalTimeAt(now) == now exactly.
  SimTime TimeInAt(HostPowerState s, SimTime now) const {
    SimTime t = TimeIn(s);
    if (s == state_ && now > last_change_) {
      t += now - last_change_;
    }
    return t;
  }
  SimTime TotalTimeAt(SimTime now) const {
    return now > last_change_ ? TotalTime() + (now - last_change_) : TotalTime();
  }

  // Attaches the owning host's id to emitted trace events (-1 = untraced).
  void set_trace_host(int64_t host) { trace_host_ = host; }

 private:
  SimTime last_change_;
  HostPowerState state_;
  std::array<SimTime, 4> time_in_{};
  int64_t trace_host_ = -1;
};

}  // namespace oasis

#endif  // OASIS_SRC_POWER_ENERGY_METER_H_
