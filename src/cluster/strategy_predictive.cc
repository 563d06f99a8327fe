#include "src/cluster/strategy_predictive.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/cluster/actuator.h"
#include "src/trace/activity_trace.h"
#include "src/trace/diurnal_prior.h"

namespace oasis {
namespace {

// Forecast floor below which the lookahead window counts as "the trough is
// coming" (the weekday night floor is ~1–3% active; the working day never
// dips near this).
constexpr double kDrainForecastThreshold = 0.10;
// Minimum forecast-over-observed rise before pre-waking anything. The
// morning ramp climbs ~25 points over an hour; transient wobble stays under
// this.
constexpr double kPrewakeRiseThreshold = 0.05;
// Day-folded per-slot smoothing: heavy enough that one day's observation
// reshapes the slot, light enough that a single chaos interval doesn't.
constexpr double kHistAlpha = 0.2;
// The scalar level ratio reacts faster than the fold fills in, but is
// clamped so the near-zero night slots can't blow it up.
constexpr double kLevelAlpha = 0.1;
constexpr double kLevelMin = 0.25;
constexpr double kLevelMax = 4.0;
// Monte-Carlo budget for the generator-derived prior the fold is seeded
// from. Fixed seed: the prior is part of the strategy's definition, not a
// per-run sample, so every instance — any OASIS_JOBS — computes the
// identical curve.
constexpr int kPriorUsers = 512;
constexpr uint64_t kPriorSeed = 20160418;

int DaySlot(SimTime now) {
  int slot = static_cast<int>(now.seconds()) / kTraceIntervalSeconds;
  return std::min(slot, kIntervalsPerDay - 1) % kIntervalsPerDay;
}

double ObservedActiveFraction(const ClusterView& view) {
  if (view.num_vms() == 0) {
    return 0.0;
  }
  size_t active = 0;
  for (size_t v = 0; v < view.num_vms(); ++v) {
    if (view.vm(static_cast<VmId>(v)).activity == VmActivity::kActive) {
      ++active;
    }
  }
  return static_cast<double>(active) / static_cast<double>(view.num_vms());
}

}  // namespace

PredictiveStrategy::PredictiveStrategy()
    : hist_(EstimateDiurnalPrior(TraceGeneratorConfig{}, DayKind::kWeekday, kPriorUsers,
                                 kPriorSeed)) {}

double PredictiveStrategy::Forecast(int slot) const {
  size_t idx = static_cast<size_t>(slot % kIntervalsPerDay);
  return std::clamp(hist_[idx] * level_, 0.0, 1.0);
}

void PredictiveStrategy::UpdateForecast(int slot, double observed) {
  size_t idx = static_cast<size_t>(slot);
  double predicted = std::max(hist_[idx], 1e-3);
  double ratio = std::clamp(observed / predicted, kLevelMin, kLevelMax);
  level_ = (1.0 - kLevelAlpha) * level_ + kLevelAlpha * ratio;
  hist_[idx] = (1.0 - kHistAlpha) * hist_[idx] + kHistAlpha * observed;
}

PlanActions PredictiveStrategy::PlanInterval(const ClusterView& view, SimTime now,
                                             Actuator& act) {
  int slot = DaySlot(now);
  double observed = ObservedActiveFraction(view);
  UpdateForecast(slot, observed);
  // The full reactive plan first; the forecast passes draw after it.
  PlanActions actions = OasisGreedyStrategy::PlanInterval(view, now, act);
  PreDrainPass(view, now, act, actions, slot);
  PreWakePass(view, now, act, actions, slot, observed);
  return actions;
}

void PredictiveStrategy::PreDrainPass(const ClusterView& view, SimTime now, Actuator& act,
                                      PlanActions& actions, int slot) {
  double floor = 1.0;
  for (int k = 1; k <= kForecastWindow; ++k) {
    floor = std::min(floor, Forecast(slot + k));
  }
  if (floor >= kDrainForecastThreshold) {
    return;
  }
  const ClusterConfig& config = view.config();
  // Candidates: powered homes whose residents are all idle *now* with at
  // least one the smoothing window doesn't trust yet — those are exactly the
  // homes the base greedy pass either skipped (OnlyPartial) or priced with
  // expensive full placements. The forecast says they'll stay idle, so plan
  // every resident as a partial with a freshly sampled working set.
  std::vector<uint64_t> planned_ws(view.num_vms(), 0);
  std::vector<Candidate> candidates;
  int num_homes = config.num_home_hosts;
  for (HostId h = 0; h < static_cast<HostId>(num_homes); ++h) {
    const ClusterHost& host = view.host(h);
    // Same s3 gate as the greedy candidate scan: a home that cannot sleep is
    // never worth pre-draining.
    if (!host.IsPowered() || !host.HasVms() || !host.s3_capable()) {
      continue;
    }
    bool eligible = true;
    bool any_untrusted = false;
    for (VmId id : host.vms()) {
      const VmSlot& vm = view.vm(id);
      if (vm.migration_in_flight || vm.location != h ||
          vm.activity != VmActivity::kIdle) {
        eligible = false;
        break;
      }
      if (!view.TrustedIdle(vm, now)) {
        any_untrusted = true;
      }
    }
    if (!eligible || !any_untrusted) {
      continue;
    }
    uint64_t demand = 0;
    for (VmId id : host.vms()) {
      uint64_t ws = view.SampleWorkingSet();
      planned_ws[id] = ws;
      demand += ws;
    }
    candidates.push_back({h, demand});
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) { return a.demand < b.demand; });
  // Same destination table, conservative/aggressive pricing and §3.1 gate as
  // the base vacate search.
  MaybeCommitVacatePlan(now, act, actions, BestVacatePlan(view, candidates, planned_ws));
}

void PredictiveStrategy::PreWakePass(const ClusterView& view, SimTime now, Actuator& act,
                                     PlanActions& actions, int slot, double observed) {
  double peak = 0.0;
  for (int k = 1; k <= kForecastWindow; ++k) {
    peak = std::max(peak, Forecast(slot + k));
  }
  double rise = peak - observed;
  if (rise <= kPrewakeRiseThreshold) {
    return;
  }
  const ClusterConfig& config = view.config();
  int num_homes = config.num_home_hosts;
  // Target enough prepared (powered, empty) homes to absorb the forecast
  // rise; homes already woken — by an earlier pre-wake or a return in
  // flight — count toward the target so the pass converges instead of
  // walking down the ranking each interval.
  int want = static_cast<int>(std::ceil(rise * num_homes));
  int ready = 0;
  for (HostId h = 0; h < static_cast<HostId>(num_homes); ++h) {
    const ClusterHost& host = view.host(h);
    if (!host.HasVms() &&
        (host.IsPowered() || host.power_state() == HostPowerState::kResuming)) {
      ++ready;
    }
  }
  int needed = want - ready;
  if (needed <= 0) {
    return;
  }
  // Wake the homes with the most parked VMs first — they serve the most
  // users when the rise arrives. Stable sort on descending count keeps ties
  // in ascending host id, so the ranking is deterministic.
  struct Ranked {
    HostId host;
    int parked;
  };
  std::vector<Ranked> ranked;
  for (HostId h = 0; h < static_cast<HostId>(num_homes); ++h) {
    if (!view.host(h).IsAsleep()) {
      continue;
    }
    int parked = 0;
    for (VmId id : view.vms_of_home(h)) {
      if (view.vm(id).location != h) {
        ++parked;
      }
    }
    if (parked > 0) {
      ranked.push_back({h, parked});
    }
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const Ranked& a, const Ranked& b) { return a.parked > b.parked; });
  for (const Ranked& r : ranked) {
    if (needed <= 0) {
      break;
    }
    if (act.PrewakeHost(now, r.host)) {
      ++actions.prewoken_hosts;
      --needed;
    }
  }
}

std::unique_ptr<ConsolidationStrategy> MakePredictiveStrategy() {
  return std::make_unique<PredictiveStrategy>();
}

}  // namespace oasis
