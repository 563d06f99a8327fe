// The cluster-wide invariant walk.
//
// CheckClusterInvariants takes a read-only snapshot of a ClusterManager mid-
// run and asserts the conservation laws the paper's evaluation rests on:
// every VM resident on exactly one host, every VM's activity matching its
// trace bit, reservations balancing the resident footprints, working-set/
// dirty byte accounting within its caps, every in-flight migration's
// completion listed exactly once and not yet due, power-state ledgers
// covering the full simulated time to the microsecond, and each host's
// energy integral inside the envelope its power profile allows. The
// manager calls it once per planning interval and once at end of run when
// a check::InvariantChecker is installed; the walk itself is const and
// allocation-light, so enabling it never changes simulation results.

#ifndef OASIS_SRC_CLUSTER_INVARIANTS_H_
#define OASIS_SRC_CLUSTER_INVARIANTS_H_

#include "src/check/check.h"
#include "src/common/units.h"

namespace oasis {

class ClusterManager;

void CheckClusterInvariants(const ClusterManager& manager, SimTime now,
                            check::InvariantChecker& checker);

}  // namespace oasis

#endif  // OASIS_SRC_CLUSTER_INVARIANTS_H_
