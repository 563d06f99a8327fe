#include "src/dc/ledger.h"

#include <algorithm>

#include "src/common/digest.h"

namespace oasis {
namespace dc {

DatacenterLedger DatacenterLedger::Build(const DatacenterRun& run,
                                         const CoordinatorStats& coordinator) {
  DatacenterLedger ledger;
  ledger.coordinator = coordinator;

  ledger.racks.reserve(run.racks.size());
  for (const RackResult& rack : run.racks) {
    RackLedgerRow row;
    row.rack = rack.rack;
    row.pod = rack.pod;
    row.users = run.config.rack.users();
    row.total_energy = rack.metrics.TotalEnergy();
    row.baseline_energy = rack.metrics.baseline_energy;
    row.savings = rack.metrics.EnergySavings();
    row.full_migrations = rack.metrics.full_migrations;
    row.partial_migrations = rack.metrics.partial_migrations;
    row.host_sleeps = rack.metrics.host_sleeps;
    row.host_wakes = rack.metrics.host_wakes;
    row.faults_injected = rack.metrics.faults_injected;
    row.events_dispatched = rack.metrics.events_dispatched;
    ledger.racks.push_back(row);
  }
  // Keyed and folded in ascending rack order: any permutation of run.racks
  // produces the same ledger bit for bit.
  std::sort(ledger.racks.begin(), ledger.racks.end(),
            [](const RackLedgerRow& a, const RackLedgerRow& b) { return a.rack < b.rack; });

  for (const RackLedgerRow& row : ledger.racks) {
    if (ledger.pods.empty() || ledger.pods.back().pod != row.pod) {
      PodLedgerRow pod;
      pod.pod = row.pod;
      ledger.pods.push_back(pod);
    }
    PodLedgerRow& pod = ledger.pods.back();
    pod.racks += 1;
    pod.total_energy += row.total_energy;
    pod.baseline_energy += row.baseline_energy;

    ledger.total_users += row.users;
    ledger.total_energy += row.total_energy;
    ledger.baseline_energy += row.baseline_energy;
    ledger.total_migrations += row.full_migrations + row.partial_migrations;
    ledger.total_faults += row.faults_injected;
    ledger.total_events += row.events_dispatched;
  }
  for (PodLedgerRow& pod : ledger.pods) {
    pod.savings =
        pod.baseline_energy > 0.0 ? 1.0 - pod.total_energy / pod.baseline_energy : 0.0;
  }
  return ledger;
}

uint64_t DatacenterLedger::Digest() const {
  Fnv1a fnv(Fnv1a::kShortBasis);
  auto i64 = [&fnv](long long v) { fnv.Fold(static_cast<uint64_t>(v)); };
  fnv.Fold(static_cast<uint64_t>(racks.size()));
  for (const RackLedgerRow& row : racks) {
    i64(row.rack);
    i64(row.pod);
    i64(row.users);
    fnv.Fold(row.total_energy);
    fnv.Fold(row.baseline_energy);
    fnv.Fold(row.savings);
    fnv.Fold(row.full_migrations);
    fnv.Fold(row.partial_migrations);
    fnv.Fold(row.host_sleeps);
    fnv.Fold(row.host_wakes);
    fnv.Fold(row.faults_injected);
    fnv.Fold(row.events_dispatched);
  }
  fnv.Fold(static_cast<uint64_t>(pods.size()));
  for (const PodLedgerRow& pod : pods) {
    i64(pod.pod);
    i64(pod.racks);
    fnv.Fold(pod.total_energy);
    fnv.Fold(pod.baseline_energy);
    fnv.Fold(pod.savings);
  }
  i64(total_users);
  fnv.Fold(total_energy);
  fnv.Fold(baseline_energy);
  fnv.Fold(total_migrations);
  fnv.Fold(total_faults);
  fnv.Fold(total_events);
  fnv.Fold(coordinator.drains_started);
  fnv.Fold(coordinator.drain_returns);
  fnv.Fold(coordinator.vms_drained);
  fnv.Fold(coordinator.drain_intervals);
  fnv.Fold(coordinator.cross_rack_traffic_bytes);
  fnv.Fold(coordinator.cap_windows);
  fnv.Fold(coordinator.cap_blocked_sponsorships);
  fnv.Fold(coordinator.fault_excluded_sponsors);
  fnv.Fold(coordinator.energy_saved);
  fnv.Fold(coordinator.migration_energy);
  return fnv.hash();
}

}  // namespace dc
}  // namespace oasis
