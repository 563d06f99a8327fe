// Cluster-wide traffic accounting by transfer purpose — the data behind the
// Fig 10 network-transfer breakdown.

#ifndef OASIS_SRC_NET_TRAFFIC_H_
#define OASIS_SRC_NET_TRAFFIC_H_

#include <array>
#include <cstdint>
#include <string>

namespace oasis {

enum class TrafficCategory {
  kFullMigration = 0,    // pre-copy live migrations over the rack network
  kPartialDescriptor,    // VM descriptor push creating a partial VM
  kMemoryUpload,         // home -> memory server image writes (SAS, off-network)
  kOnDemandPages,        // memory server -> partial VM page fetches
  kReintegration,        // dirty pages pushed back to the VM's home
  kCategoryCount,
};

const char* TrafficCategoryName(TrafficCategory c);

class TrafficAccounting {
 public:
  void Add(TrafficCategory c, uint64_t bytes);
  // `count` transfers totalling `bytes`, as if Add(c, ...) ran once per
  // transfer.
  void Add(TrafficCategory c, uint64_t bytes, uint64_t count);
  uint64_t Total(TrafficCategory c) const;
  uint64_t Count(TrafficCategory c) const;

  // Everything that crosses the datacenter network. Memory uploads travel
  // over the host-local SAS channel (§4.3: "memory transfer traffic from the
  // host to the memory server does not reach the datacenter network").
  uint64_t NetworkTotal() const;

  // Partial-migration traffic as Fig 10 groups it: descriptor pushes,
  // on-demand fetches and reintegration.
  uint64_t PartialMigrationTotal() const;

  void MergeFrom(const TrafficAccounting& other);
  void Reset();

  std::string Summary() const;

 private:
  std::array<uint64_t, static_cast<size_t>(TrafficCategory::kCategoryCount)> bytes_{};
  std::array<uint64_t, static_cast<size_t>(TrafficCategory::kCategoryCount)> counts_{};
};

}  // namespace oasis

#endif  // OASIS_SRC_NET_TRAFFIC_H_
