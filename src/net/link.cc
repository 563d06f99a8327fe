#include "src/net/link.h"

#include <algorithm>
#include <cassert>

namespace oasis {

SimTime Link::TransferTime(uint64_t bytes) const {
  assert(bytes_per_second_ > 0.0);
  double seconds = static_cast<double>(bytes) / bytes_per_second_;
  return latency_ + SimTime::Seconds(seconds);
}

SimTime SharedChannel::EnqueueTransfer(SimTime now, uint64_t bytes) {
  SimTime start = std::max(now, busy_until_);
  SimTime done = start + link_.TransferTime(bytes);
  busy_until_ = done;
  total_bytes_ += bytes;
  ++total_transfers_;
  return done;
}

SimTime SharedChannel::QueueDelay(SimTime now) const {
  return busy_until_ > now ? busy_until_ - now : SimTime::Zero();
}

}  // namespace oasis
