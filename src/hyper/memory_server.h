// The per-host low-power memory page server (§3.3, §4.3).
//
// Before its host sleeps, the host writes each consolidated VM's compressed
// memory image across the shared SAS drive; the low-power board then serves
// page requests over the network by guest pseudo-frame number while the
// host stays in S3. This model captures the pieces performance depends on:
// the serializing SAS upload channel and per-request service latency with a
// small chunk-granular read cache. The board's power draw and its failures
// belong to the cluster day: ClusterHost bills the board, and the actuator
// kills it on FaultClass::kMemoryServerFailure.

#ifndef OASIS_SRC_HYPER_MEMORY_SERVER_H_
#define OASIS_SRC_HYPER_MEMORY_SERVER_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <unordered_map>

#include "src/common/status.h"
#include "src/common/units.h"
#include "src/hyper/vm.h"
#include "src/net/link.h"

namespace oasis {

// The SAS channel the host pushes images over runs at kSasBytesPerSec
// (§4.3: 128 MiB/s) with this per-transfer latency.
inline constexpr SimTime kSasLatency = SimTime::Millis(1);
// Page-request service: network round trip + disk read + decompression.
inline constexpr SimTime kNetworkRtt = SimTime::Micros(200);
inline constexpr SimTime kDiskSeek = SimTime::Micros(5300);  // random read on the SAS drive
inline constexpr SimTime kDecompressPerPage = SimTime::Micros(45);
// Recently read 2 MiB chunks stay in the board's RAM; hits skip the seek.
inline constexpr size_t kChunkCacheEntries = 64;

class MemoryServer {
 public:
  explicit MemoryServer(size_t chunk_cache_entries = kChunkCacheEntries);

  // Writes `compressed_bytes` of VM `vm` to the shared drive, queueing
  // behind in-flight uploads. Returns the completion time.
  SimTime Upload(SimTime now, VmId vm, uint64_t compressed_bytes);

  // Serves one page request; returns its service latency. The VM's image
  // must have been uploaded.
  StatusOr<SimTime> ServePageRequest(SimTime now, VmId vm, uint64_t page_number);

  // Frees a VM's image (after full migration away or reintegration).
  void Remove(VmId vm);

  bool HasImage(VmId vm) const;
  uint64_t StoredBytes() const;

  uint64_t pages_served() const { return pages_served_; }
  uint64_t cache_hits() const { return cache_hits_; }

 private:
  bool CacheLookupInsert(VmId vm, uint64_t chunk);

  size_t chunk_cache_entries_;
  SharedChannel sas_;
  std::unordered_map<VmId, uint64_t> images_;  // vm -> stored compressed bytes
  // Tiny LRU of (vm, chunk) pairs.
  std::deque<std::pair<VmId, uint64_t>> cache_lru_;
  uint64_t pages_served_ = 0;
  uint64_t cache_hits_ = 0;
};

}  // namespace oasis

#endif  // OASIS_SRC_HYPER_MEMORY_SERVER_H_
