// Link and shared-channel transfer-time models.
//
// Two primitives cover every wire in the system: a Link turns byte counts
// into durations; a SharedChannel additionally serializes concurrent
// transfers (a host NIC during a reintegration storm, the shared SAS drive
// during memory uploads), which is what produces the Fig 11 latency tail.

#ifndef OASIS_SRC_NET_LINK_H_
#define OASIS_SRC_NET_LINK_H_

#include <cstdint>

#include "src/common/units.h"

namespace oasis {

// Effective sequential bandwidths used across the simulation, from the
// paper's measurements and its cited sources.
inline constexpr double kGigEBytesPerSec = 117.0 * kMiB;      // 1 GigE effective
inline constexpr double kTenGigEBytesPerSec = 1170.0 * kMiB;  // 10 GigE effective
inline constexpr double kSasBytesPerSec = 128.0 * kMiB;       // §4.3 measurement

class Link {
 public:
  Link(double bytes_per_second, SimTime latency)
      : bytes_per_second_(bytes_per_second), latency_(latency) {}

  double bytes_per_second() const { return bytes_per_second_; }
  SimTime latency() const { return latency_; }

  // Duration of one isolated transfer of `bytes`.
  SimTime TransferTime(uint64_t bytes) const;

 private:
  double bytes_per_second_;
  SimTime latency_;
};

// A serializing channel: transfers queue FIFO and each takes
// link.TransferTime. Callers pass the current simulated time and receive the
// completion time; the channel tracks its own backlog.
class SharedChannel {
 public:
  explicit SharedChannel(Link link) : link_(link) {}

  // Enqueues a transfer arriving at `now`; returns when it completes.
  SimTime EnqueueTransfer(SimTime now, uint64_t bytes);

  // When the channel drains, given no further arrivals.
  SimTime busy_until() const { return busy_until_; }

  // Queueing delay a transfer arriving at `now` would suffer before its own
  // service starts.
  SimTime QueueDelay(SimTime now) const;

  // Takes the channel out of service for `duration` starting at `from`
  // (which may lie in the past, covering an outage discovered at repair
  // time): queued and future transfers finish `duration` later. Used by
  // fault injection to model a dead memory-server board stalling its SAS
  // path.
  void InjectOutage(SimTime from, SimTime duration);

  const Link& link() const { return link_; }

  uint64_t total_bytes() const { return total_bytes_; }
  uint64_t total_transfers() const { return total_transfers_; }
  uint64_t outages() const { return outages_; }

 private:
  Link link_;
  SimTime busy_until_ = SimTime::Zero();
  uint64_t total_bytes_ = 0;
  uint64_t total_transfers_ = 0;
  uint64_t outages_ = 0;
};

}  // namespace oasis

#endif  // OASIS_SRC_NET_LINK_H_
