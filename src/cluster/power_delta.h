// Shared §3.1 power-delta arithmetic.
//
// Every consolidation strategy — and the offline oracle — prices a plan
// with the same three quantities: the draw of a loaded home, the net watts
// saved by parking one home (loaded minus S3 minus the memory server left
// on), and the watts spent waking one consolidation host. These helpers
// take the host's own resolved profile, and DeltaAccumulator folds a whole
// plan into a net delta with per-profile-class integer counts.
//
// Rounding note: the accumulator multiplies each class's count by its
// per-home value (count * value, one multiply) rather than summing the
// value per host. On a homogeneous fleet there is exactly one class, so
// the delta is the single expression
//     N * saved_per_home - W * (loaded - sleep_watts)
// and every golden and metamorphic digest depends on that rounding.

#ifndef OASIS_SRC_CLUSTER_POWER_DELTA_H_
#define OASIS_SRC_CLUSTER_POWER_DELTA_H_

#include <vector>

#include "src/cluster/view.h"
#include "src/power/power_model.h"

namespace oasis {
namespace power_delta {

// Draw of a loaded home host: every one of its vms_per_home VMs resident
// (the §3.1 operating point the savings arithmetic is anchored to).
inline Watts LoadedWatts(const HostPowerProfile& p, int vms_per_home) {
  return p.Draw(HostPowerState::kPowered, vms_per_home);
}

// Net watts saved by parking one home of this profile: loaded draw minus
// S3 draw minus the memory server that stays on. Zero when the host cannot
// enter S3 — it may sponsor guests but never sleeps, so vacating it saves
// nothing.
inline double SavedPerHome(const HostPowerProfile& p, bool s3_capable,
                           int vms_per_home, Watts memory_server_watts) {
  if (!s3_capable) {
    return 0.0;
  }
  return LoadedWatts(p, vms_per_home) - p.sleep_watts - memory_server_watts;
}

// Watts spent waking one sleeping consolidation host of this profile: it
// leaves S3 and runs loaded (§3.1's cost term).
inline double WakeCostWatts(const HostPowerProfile& p, int vms_per_home) {
  return LoadedWatts(p, vms_per_home) - p.sleep_watts;
}

// Folds a vacate plan's savings and wake costs into one net delta,
// bucketing hosts by profile class (see the rounding note above).
// Per-class values are resolved lazily from the first host of each class
// the plan touches.
class DeltaAccumulator {
 public:
  explicit DeltaAccumulator(const ClusterView& view)
      : view_(view),
        ms_watts_(view.config().memory_server_power.TotalWatts()),
        saved_count_(view.config().NumProfileClasses(), 0),
        saved_value_(view.config().NumProfileClasses(), 0.0),
        woken_count_(view.config().NumProfileClasses(), 0),
        wake_value_(view.config().NumProfileClasses(), 0.0) {}

  void AddVacatedHome(HostId home) {
    const ClusterHost& h = view_.host(home);
    const int cls = h.profile_class();
    if (saved_count_[cls] == 0) {
      saved_value_[cls] =
          SavedPerHome(h.power_profile(), h.s3_capable(), view_.config().vms_per_home, ms_watts_);
    }
    ++saved_count_[cls];
  }

  void AddWokenConsolidationHost(HostId host) {
    const ClusterHost& h = view_.host(host);
    const int cls = h.profile_class();
    if (woken_count_[cls] == 0) {
      wake_value_[cls] = WakeCostWatts(h.power_profile(), view_.config().vms_per_home);
    }
    ++woken_count_[cls];
    ++total_woken_;
  }

  int total_woken() const { return total_woken_; }

  double NetWatts() const {
    double net = 0.0;
    for (size_t c = 0; c < saved_count_.size(); ++c) {
      if (saved_count_[c] > 0) {
        net += static_cast<double>(saved_count_[c]) * saved_value_[c];
      }
    }
    for (size_t c = 0; c < woken_count_.size(); ++c) {
      if (woken_count_[c] > 0) {
        net -= static_cast<double>(woken_count_[c]) * wake_value_[c];
      }
    }
    return net;
  }

 private:
  const ClusterView& view_;
  Watts ms_watts_;
  std::vector<int> saved_count_;
  std::vector<double> saved_value_;
  std::vector<int> woken_count_;
  std::vector<double> wake_value_;
  int total_woken_ = 0;
};

}  // namespace power_delta
}  // namespace oasis

#endif  // OASIS_SRC_CLUSTER_POWER_DELTA_H_
