// FNV-1a digest over every observable field of a SimulationResult.
//
// The metamorphic suite phrases its properties as digest equalities: "same
// seed, same digest", "OASIS_JOBS=1 and N, same digest", "faults disabled,
// same digest as the pre-fault build". Folding *all* of the metrics — the
// energy integrals, the Fig 7 timeline, the CDF samples, traffic by
// category, the fault accounting — makes those equalities far stronger than
// comparing a handful of headline numbers: a single perturbed interval or a
// one-ULP energy drift flips the digest.

#ifndef OASIS_TESTS_METRIC_DIGEST_H_
#define OASIS_TESTS_METRIC_DIGEST_H_

#include <cstdint>

#include "src/common/digest.h"
#include "src/core/oasis.h"

namespace oasis {
namespace testing {

// The shared FNV-1a fold, plus simulated times by their microsecond count.
class MetricDigest : public Fnv1a {
 public:
  using Fnv1a::Fold;
  void Fold(SimTime t) { Fold(static_cast<uint64_t>(t.micros())); }
};

inline uint64_t DigestMetrics(const ClusterMetrics& m) {
  MetricDigest d;
  d.Fold(m.home_host_energy);
  d.Fold(m.consolidation_host_energy);
  d.Fold(m.memory_server_energy);
  d.Fold(m.baseline_energy);
  for (const IntervalSnapshot& s : m.timeline) {
    d.Fold(s.time);
    d.Fold(static_cast<uint64_t>(s.active_vms));
    d.Fold(static_cast<uint64_t>(s.powered_hosts));
    d.Fold(static_cast<uint64_t>(s.powered_home_hosts));
    d.Fold(static_cast<uint64_t>(s.powered_consolidation_hosts));
    d.Fold(static_cast<uint64_t>(s.partial_vms));
    d.Fold(static_cast<uint64_t>(s.full_at_consolidation_vms));
  }
  for (double sample : m.consolidation_ratio.sorted_samples()) {
    d.Fold(sample);
  }
  for (double sample : m.transition_delay_s.sorted_samples()) {
    d.Fold(sample);
  }
  for (int c = 0; c < static_cast<int>(TrafficCategory::kCategoryCount); ++c) {
    TrafficCategory category = static_cast<TrafficCategory>(c);
    d.Fold(m.traffic.Total(category));
    d.Fold(m.traffic.Count(category));
  }
  d.Fold(m.full_migrations);
  d.Fold(m.partial_migrations);
  d.Fold(m.reintegrations);
  d.Fold(m.host_sleeps);
  d.Fold(m.host_wakes);
  d.Fold(m.capacity_exhaustions);
  d.Fold(m.full_to_partial_swaps);
  d.Fold(m.new_home_moves);
  d.Fold(m.faults_injected);
  d.Fold(m.faults_recovered);
  d.Fold(m.crash_vm_restarts);
  for (int c = 0; c < kNumFaultClasses; ++c) {
    d.Fold(m.fault_injected_by_class[c]);
    d.Fold(m.fault_recovered_by_class[c]);
    d.Fold(m.fault_skipped_by_class[c]);
  }
  d.Fold(m.events_dispatched);
  return d.hash();
}

inline uint64_t DigestResult(const SimulationResult& result) {
  return DigestMetrics(result.metrics);
}

}  // namespace testing
}  // namespace oasis

#endif  // OASIS_TESTS_METRIC_DIGEST_H_
