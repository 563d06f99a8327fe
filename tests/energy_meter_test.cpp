#include "src/power/energy_meter.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "src/common/rng.h"

namespace oasis {
namespace {

TEST(EnergyMeterTest, ConstantDrawIntegrates) {
  EnergyMeter m(SimTime::Zero(), 100.0);
  m.Advance(SimTime::Hours(2));
  EXPECT_DOUBLE_EQ(ToWattHours(m.total_joules()), 200.0);
}

TEST(EnergyMeterTest, PiecewiseConstant) {
  EnergyMeter m(SimTime::Zero(), 100.0);
  m.SetDraw(SimTime::Hours(1), 50.0);   // 100 Wh so far
  m.SetDraw(SimTime::Hours(3), 0.0);    // +100 Wh
  m.Advance(SimTime::Hours(10));        // +0
  EXPECT_DOUBLE_EQ(ToWattHours(m.total_joules()), 200.0);
  EXPECT_DOUBLE_EQ(m.current_draw(), 0.0);
}

TEST(EnergyMeterTest, RepeatedAdvanceIsIdempotentAtSameTime) {
  EnergyMeter m(SimTime::Zero(), 10.0);
  m.Advance(SimTime::Hours(1));
  double j = m.total_joules();
  m.Advance(SimTime::Hours(1));
  EXPECT_DOUBLE_EQ(m.total_joules(), j);
}

TEST(EnergyMeterTest, TransitionSpikeAccounting) {
  // Suspend at 138.2 W for 3.1 s then sleep at 12.9 W — the Table 1 numbers.
  EnergyMeter m(SimTime::Zero(), 138.2);
  m.SetDraw(SimTime::Seconds(3.1), 12.9);
  m.Advance(SimTime::Seconds(3.1 + 3600.0));
  EXPECT_NEAR(m.total_joules(), 138.2 * 3.1 + 12.9 * 3600.0, 1e-6);
}

TEST(EnergyMeterTest, Table1TransitionEnergyTable) {
  // Each row pins one Table 1 measurement: holding the state's draw for its
  // measured dwell must integrate to exactly watts x seconds, and the two
  // transition rows additionally match the hand-computed joule figures
  // (3.1 s @ 138.2 W = 428.42 J suspending, 2.3 s @ 149.2 W = 343.16 J
  // resuming).
  const HostPowerProfile profile;
  struct Case {
    const char* name;
    Watts watts;
    SimTime dwell;
    double expected_joules;
  };
  const Case kCases[] = {
      {"suspend", profile.suspend_watts, profile.suspend_latency, 428.42},
      {"resume", profile.resume_watts, profile.resume_latency, 343.16},
      {"sleep-hour", profile.sleep_watts, SimTime::Hours(1), 12.9 * 3600.0},
      {"idle-hour", profile.idle_watts, SimTime::Hours(1), 102.2 * 3600.0},
      {"busy-hour", profile.watts_at_20_vms, SimTime::Hours(1), 137.9 * 3600.0},
  };
  for (const Case& c : kCases) {
    SCOPED_TRACE(c.name);
    EnergyMeter meter(SimTime::Zero(), c.watts);
    meter.Advance(c.dwell);
    // The meter is a pure piecewise integral: bit-identical to EnergyOver.
    EXPECT_EQ(meter.total_joules(), EnergyOver(c.watts, c.dwell));
    // The hand figure is quoted at the measured latency; SimTime stores
    // microseconds, so 2.3 s truncates to 2299999 us and the match is to
    // ~1e-4 J, not exact.
    EXPECT_NEAR(meter.total_joules(), c.expected_joules, 1e-2);
    // The side-effect-free view the invariant checker uses agrees exactly.
    EXPECT_EQ(meter.EnergyAt(c.dwell), meter.total_joules());
  }

  // A full suspend -> sleep -> resume cycle sums the rows exactly: the meter
  // must account transition spikes and the sleep plateau with no loss.
  EnergyMeter cycle(SimTime::Zero(), profile.suspend_watts);
  SimTime t = profile.suspend_latency;
  cycle.SetDraw(t, profile.sleep_watts);
  t += SimTime::Hours(1);
  cycle.SetDraw(t, profile.resume_watts);
  t += profile.resume_latency;
  cycle.Advance(t);
  EXPECT_NEAR(cycle.total_joules(), 428.42 + 12.9 * 3600.0 + 343.16, 1e-2);
}

TEST(StateTimeLedgerTest, SideEffectFreeViewsCoverTheOpenSegment) {
  StateTimeLedger ledger(SimTime::Zero(), HostPowerState::kPowered);
  ledger.Transition(SimTime::Hours(2), HostPowerState::kSuspending);
  // One hour into the still-open suspending segment (no Advance): the *At
  // views must include it, and the total must cover the run exactly.
  SimTime now = SimTime::Hours(3);
  EXPECT_EQ(ledger.TimeInAt(HostPowerState::kPowered, now), SimTime::Hours(2));
  EXPECT_EQ(ledger.TimeInAt(HostPowerState::kSuspending, now), SimTime::Hours(1));
  EXPECT_EQ(ledger.TotalTimeAt(now), now);
  // The views mutate nothing: the recorded tallies still end at the last
  // transition.
  EXPECT_EQ(ledger.TimeIn(HostPowerState::kSuspending), SimTime::Zero());
}

// The lazy form against the eager meter it replaced on ClusterHost: a host
// whose draw follows its resident count and power state, changed several
// times at most instants. The eager reference calls SetDraw after every
// change; the lazy meter closes its segment before each change, which
// evaluates the draw only when time has advanced. Joules and the
// side-effect-free view must be bit-identical.
TEST(EnergyMeterTest, LazyCloseMatchesSetDrawAfterEveryChange) {
  const HostPowerProfile profile = HostPowerProfile{}.Scaled(110.0 / 30.0);
  const HostPowerState kStates[] = {HostPowerState::kPowered, HostPowerState::kSuspending,
                                    HostPowerState::kSleeping, HostPowerState::kResuming};
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    HostPowerState state = HostPowerState::kPowered;
    int residents = 0;
    auto draw = [&] { return profile.Draw(state, residents); };
    EnergyMeter eager(SimTime::Zero(), draw());
    EnergyMeter lazy(SimTime::Zero(), 0.0);
    int draws = 0;
    auto counted_draw = [&] {
      ++draws;
      return draw();
    };
    SimTime now = SimTime::Zero();
    int instants = 0;
    for (int step = 0; step < 2000; ++step) {
      // Most instants see several changes; some see none but a reading.
      if (rng.NextBool(0.7)) {
        now += SimTime::Micros(static_cast<int64_t>(1 + rng.NextBelow(600'000'000)));
        ++instants;
      }
      const int changes = static_cast<int>(rng.NextBelow(5));
      for (int c = 0; c < changes; ++c) {
        lazy.CloseSegment(now, counted_draw);
        if (rng.NextBool(0.2)) {
          state = kStates[rng.NextBelow(4)];
        } else {
          residents = std::max(0, residents + (rng.NextBool(0.5) ? 1 : -1) *
                                                  static_cast<int>(1 + rng.NextBelow(40)));
        }
        eager.SetDraw(now, draw());
      }
      ASSERT_EQ(lazy.EnergyAt(now, draw()), eager.EnergyAt(now)) << "step " << step;
    }
    now += SimTime::Hours(1.0);
    ASSERT_EQ(lazy.EnergyAt(now, draw()), eager.EnergyAt(now));
    lazy.CloseSegment(now, counted_draw);
    eager.Advance(now);
    EXPECT_EQ(lazy.total_joules(), eager.total_joules());
    // One draw per instant that saw a change, not one per change.
    EXPECT_LE(draws, instants + 1);
  }
}

TEST(StateTimeLedgerTest, TracksTimePerState) {
  StateTimeLedger ledger(SimTime::Zero(), HostPowerState::kPowered);
  ledger.Transition(SimTime::Hours(2), HostPowerState::kSuspending);
  ledger.Transition(SimTime::Hours(2) + SimTime::Seconds(3.1), HostPowerState::kSleeping);
  ledger.Advance(SimTime::Hours(10));
  EXPECT_EQ(ledger.TimeIn(HostPowerState::kPowered), SimTime::Hours(2));
  EXPECT_EQ(ledger.TimeIn(HostPowerState::kSuspending), SimTime::Seconds(3.1));
  EXPECT_NEAR(ledger.TimeIn(HostPowerState::kSleeping).seconds(), 8 * 3600.0 - 3.1, 1e-6);
  EXPECT_EQ(ledger.state(), HostPowerState::kSleeping);
}

TEST(StateTimeLedgerTest, SleepFraction) {
  StateTimeLedger ledger(SimTime::Zero(), HostPowerState::kSleeping);
  ledger.Transition(SimTime::Hours(6), HostPowerState::kPowered);
  ledger.Advance(SimTime::Hours(24));
  EXPECT_DOUBLE_EQ(ledger.SleepFraction(SimTime::Hours(24)), 0.25);
  EXPECT_DOUBLE_EQ(ledger.SleepFraction(SimTime::Zero()), 0.0);
}

}  // namespace
}  // namespace oasis
