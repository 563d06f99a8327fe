// Predictive consolidation: oasis-greedy plus a diurnal activity forecast
// (the "predictive" registry entry).
//
// The reactive planner consolidates only after the idleness detector's
// smoothing window has elapsed and wakes hosts only after users are already
// back — it trails the workload by construction. This strategy runs the full
// oasis-greedy plan first (so it inherits the §3.2 swaps and the §3.1
// power-gated vacate search byte for byte) and then adds two forecast-driven
// passes:
//
//   pre-drain  — when the forecast says activity stays below a floor for the
//                whole lookahead window (the run into the ~6:30am trough),
//                homes whose residents are all idle *now* — including ones
//                the smoothing window doesn't yet trust — are planned as
//                all-partial vacates through the shared PlaceAndPrice core,
//                behind the same §3.1 gate. Greedy would have planned the
//                untrusted residents as full placements (or waited out the
//                window); draining them as partials earns the smoothing
//                window's worth of extra sleep per home.
//   pre-wake   — when the forecast rises ahead of observed activity (the run
//                into the ~2pm peak), sleeping home hosts are woken ahead of
//                their users so returning groups land on a powered host. A
//                wrongly pre-woken host is re-slept by the manager's normal
//                end-of-interval sweep, so a forecast miss costs at most one
//                interval of idle draw.
//
// The forecast is the one declared piece of cross-interval strategy state
// (see the doctrine note in strategy.h): a per-slot EWMA over day-folded
// observed activity, seeded from the trace generator's own diurnal prior
// (src/trace/diurnal_prior.h), plus a scalar level ratio that adapts the
// shape to days the prior doesn't match (weekends, chaos days). It
// summarizes only what past views exposed — never the strategy's own past
// decisions.
//
// Both passes draw from the shared planning streams strictly *after* the
// base greedy pass finishes.

#ifndef OASIS_SRC_CLUSTER_STRATEGY_PREDICTIVE_H_
#define OASIS_SRC_CLUSTER_STRATEGY_PREDICTIVE_H_

#include <vector>

#include "src/cluster/strategy_oasis.h"

namespace oasis {

// How many 5-minute intervals ahead the pre-drain/pre-wake passes look
// (30 minutes).
inline constexpr int kForecastWindow = 6;

class PredictiveStrategy : public OasisGreedyStrategy {
 public:
  PredictiveStrategy();

  const char* name() const override { return "predictive"; }
  PlanActions PlanInterval(const ClusterView& view, SimTime now, Actuator& act) override;

  // Forecast active fraction for day slot `slot` (mod intervals-per-day).
  // Exposed so tests can pin the forecast's shape without running a day.
  double Forecast(int slot) const;

 private:
  void UpdateForecast(int slot, double observed);
  void PreDrainPass(const ClusterView& view, SimTime now, Actuator& act,
                    PlanActions& actions, int slot);
  void PreWakePass(const ClusterView& view, SimTime now, Actuator& act,
                   PlanActions& actions, int slot, double observed);

  // Declared forecast state (strategy.h doctrine): day-folded per-slot EWMA
  // of observed active fraction, seeded from the generator's diurnal prior,
  // and a scalar level ratio tracking how far today runs above/below it.
  std::vector<double> hist_;
  double level_ = 1.0;
};

}  // namespace oasis

#endif  // OASIS_SRC_CLUSTER_STRATEGY_PREDICTIVE_H_
