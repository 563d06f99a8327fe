#include "src/hyper/memory_server.h"

#include <algorithm>
#include <string>

#include "src/check/check.h"
#include "src/common/log.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace oasis {

MemoryServer::MemoryServer(size_t chunk_cache_entries)
    : chunk_cache_entries_(chunk_cache_entries), sas_(Link(kSasBytesPerSec, kSasLatency)) {}

SimTime MemoryServer::Upload(SimTime now, VmId vm, uint64_t compressed_bytes) {
  images_[vm] += compressed_bytes;
  SimTime done = sas_.EnqueueTransfer(now, compressed_bytes);
  OASIS_CLOG(kDebug, "memsrv") << "vm " << vm << " image upload " << compressed_bytes
                               << " B, done at " << done.seconds() << " s";
  if (obs::Tracer* t = obs::Tracer::IfEnabled()) {
    t->Complete("memsrv", "image_upload", now, done,
                obs::TraceArgs{-1, static_cast<int64_t>(vm),
                               static_cast<int64_t>(compressed_bytes)});
  }
  if (obs::MetricsRegistry* m = obs::MetricsRegistry::IfEnabled()) {
    m->counter("memsrv.uploads")->Increment();
    m->counter("memsrv.upload_bytes")->Increment(compressed_bytes);
  }
  return done;
}

StatusOr<SimTime> MemoryServer::ServePageRequest(SimTime now, VmId vm, uint64_t page_number) {
  auto it = images_.find(vm);
  if (it == images_.end()) {
    return Status::NotFound("no image for vm " + std::to_string(vm));
  }
  ++pages_served_;
  uint64_t chunk = page_number / kPagesPerChunk;
  SimTime latency = kNetworkRtt + kDecompressPerPage;
  bool hit = CacheLookupInsert(vm, chunk);
  if (hit) {
    ++cache_hits_;
  } else {
    latency += kDiskSeek;
  }
  if (obs::Tracer* t = obs::Tracer::IfEnabled()) {
    t->Complete("memsrv", "page_serve", now, now + latency,
                obs::TraceArgs{-1, static_cast<int64_t>(vm), static_cast<int64_t>(kPageSize)});
  }
  if (obs::MetricsRegistry* m = obs::MetricsRegistry::IfEnabled()) {
    m->counter("memsrv.pages_served")->Increment();
    if (hit) {
      m->counter("memsrv.cache_hits")->Increment();
    }
    m->histogram("memsrv.page_serve_us")->Record(latency.micros());
  }
  if (check::InvariantChecker* c = check::InvariantChecker::IfEnabled()) {
    // Every cache hit was a served page, and a served page always pays at
    // least the network round trip — a latency below it means the model
    // skipped a hop.
    c->Expect(cache_hits_ <= pages_served_, "memsrv.hits_within_serves", now,
              [&] {
                return std::to_string(cache_hits_) + " cache hits exceed " +
                       std::to_string(pages_served_) + " pages served";
              },
              obs::TraceArgs{-1, static_cast<int64_t>(vm)});
    c->Expect(latency >= kNetworkRtt, "memsrv.latency_includes_rtt", now,
              [&] {
                return "page served in " + std::to_string(latency.micros()) +
                       " us, below the network RTT of " +
                       std::to_string(kNetworkRtt.micros()) + " us";
              },
              obs::TraceArgs{-1, static_cast<int64_t>(vm)});
  }
  return latency;
}

void MemoryServer::Remove(VmId vm) {
  images_.erase(vm);
  cache_lru_.erase(std::remove_if(cache_lru_.begin(), cache_lru_.end(),
                                  [vm](const auto& e) { return e.first == vm; }),
                   cache_lru_.end());
}

bool MemoryServer::HasImage(VmId vm) const { return images_.count(vm) > 0; }

uint64_t MemoryServer::StoredBytes() const {
  uint64_t total = 0;
  for (const auto& [vm, bytes] : images_) {
    total += bytes;
  }
  return total;
}

bool MemoryServer::CacheLookupInsert(VmId vm, uint64_t chunk) {
  auto key = std::make_pair(vm, chunk);
  auto it = std::find(cache_lru_.begin(), cache_lru_.end(), key);
  bool hit = it != cache_lru_.end();
  if (hit) {
    cache_lru_.erase(it);
  }
  cache_lru_.push_back(key);
  while (cache_lru_.size() > chunk_cache_entries_) {
    cache_lru_.pop_front();
  }
  return hit;
}

}  // namespace oasis
