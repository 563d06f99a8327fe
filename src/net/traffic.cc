#include "src/net/traffic.h"

#include <sstream>

#include "src/common/units.h"

namespace oasis {

const char* TrafficCategoryName(TrafficCategory c) {
  switch (c) {
    case TrafficCategory::kFullMigration:
      return "full-migration";
    case TrafficCategory::kPartialDescriptor:
      return "partial-descriptor";
    case TrafficCategory::kMemoryUpload:
      return "memory-upload";
    case TrafficCategory::kOnDemandPages:
      return "on-demand-pages";
    case TrafficCategory::kReintegration:
      return "reintegration";
    case TrafficCategory::kCategoryCount:
      break;
  }
  return "?";
}

void TrafficAccounting::Add(TrafficCategory c, uint64_t bytes) { Add(c, bytes, 1); }

void TrafficAccounting::Add(TrafficCategory c, uint64_t bytes, uint64_t count) {
  bytes_[static_cast<size_t>(c)] += bytes;
  counts_[static_cast<size_t>(c)] += count;
}

uint64_t TrafficAccounting::Total(TrafficCategory c) const {
  return bytes_[static_cast<size_t>(c)];
}

uint64_t TrafficAccounting::Count(TrafficCategory c) const {
  return counts_[static_cast<size_t>(c)];
}

uint64_t TrafficAccounting::NetworkTotal() const {
  uint64_t total = 0;
  for (size_t c = 0; c < bytes_.size(); ++c) {
    if (static_cast<TrafficCategory>(c) != TrafficCategory::kMemoryUpload) {
      total += bytes_[c];
    }
  }
  return total;
}

uint64_t TrafficAccounting::PartialMigrationTotal() const {
  return Total(TrafficCategory::kPartialDescriptor) + Total(TrafficCategory::kOnDemandPages) +
         Total(TrafficCategory::kReintegration);
}

void TrafficAccounting::MergeFrom(const TrafficAccounting& other) {
  for (size_t c = 0; c < bytes_.size(); ++c) {
    bytes_[c] += other.bytes_[c];
    counts_[c] += other.counts_[c];
  }
}

void TrafficAccounting::Reset() {
  bytes_.fill(0);
  counts_.fill(0);
}

std::string TrafficAccounting::Summary() const {
  std::ostringstream os;
  for (size_t c = 0; c < bytes_.size(); ++c) {
    if (c > 0) {
      os << ", ";
    }
    os << TrafficCategoryName(static_cast<TrafficCategory>(c)) << "="
       << FormatBytes(bytes_[c]);
  }
  return os.str();
}

}  // namespace oasis
