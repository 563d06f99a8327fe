#include "src/hyper/memory_server.h"

#include <gtest/gtest.h>

namespace oasis {
namespace {

TEST(MemoryServerTest, UploadTimeFollowsSasBandwidth) {
  MemoryServer server;
  SimTime done = server.Upload(SimTime::Zero(), 1, 1306 * kMiB);
  EXPECT_NEAR(done.seconds(), 10.2, 0.1);
  EXPECT_TRUE(server.HasImage(1));
  EXPECT_EQ(server.StoredBytes(), 1306 * kMiB);
}

TEST(MemoryServerTest, ConcurrentUploadsSerializeOnSas) {
  MemoryServer server;
  SimTime d1 = server.Upload(SimTime::Zero(), 1, 128 * kMiB);
  SimTime d2 = server.Upload(SimTime::Zero(), 2, 128 * kMiB);
  EXPECT_NEAR(d1.seconds(), 1.0, 0.01);
  EXPECT_NEAR(d2.seconds(), 2.0, 0.01);
}

TEST(MemoryServerTest, ServeUnknownVmFails) {
  MemoryServer server;
  StatusOr<SimTime> r = server.ServePageRequest(SimTime::Zero(), 99, 0);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(MemoryServerTest, ColdRequestPaysDiskSeek) {
  MemoryServer server;
  server.Upload(SimTime::Zero(), 1, 100 * kMiB);
  StatusOr<SimTime> r = server.ServePageRequest(SimTime::Zero(), 1, 12345);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, kNetworkRtt + kDiskSeek + kDecompressPerPage);
}

TEST(MemoryServerTest, SameChunkHitsCache) {
  MemoryServer server;
  server.Upload(SimTime::Zero(), 1, 100 * kMiB);
  uint64_t base = 7 * kPagesPerChunk;
  StatusOr<SimTime> miss = server.ServePageRequest(SimTime::Zero(), 1, base);
  StatusOr<SimTime> hit = server.ServePageRequest(SimTime::Zero(), 1, base + 3);
  ASSERT_TRUE(miss.ok());
  ASSERT_TRUE(hit.ok());
  EXPECT_LT(*hit, *miss);
  EXPECT_EQ(server.cache_hits(), 1u);
  EXPECT_EQ(server.pages_served(), 2u);
}

TEST(MemoryServerTest, CacheEvictsOldChunks) {
  MemoryServer server(/*chunk_cache_entries=*/2);
  server.Upload(SimTime::Zero(), 1, 100 * kMiB);
  server.ServePageRequest(SimTime::Zero(), 1, 0 * kPagesPerChunk);      // miss chunk 0
  server.ServePageRequest(SimTime::Zero(), 1, 1 * kPagesPerChunk);      // miss chunk 1
  server.ServePageRequest(SimTime::Zero(), 1, 2 * kPagesPerChunk);      // miss chunk 2 (evicts 0)
  StatusOr<SimTime> r = server.ServePageRequest(SimTime::Zero(), 1, 1);  // chunk 0 again
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(server.cache_hits(), 0u);
}

TEST(MemoryServerTest, RemoveFreesImageAndCache) {
  MemoryServer server;
  server.Upload(SimTime::Zero(), 1, 50 * kMiB);
  server.ServePageRequest(SimTime::Zero(), 1, 0);
  server.Remove(1);
  EXPECT_FALSE(server.HasImage(1));
  EXPECT_EQ(server.StoredBytes(), 0u);
  EXPECT_FALSE(server.ServePageRequest(SimTime::Zero(), 1, 0).ok());
}

TEST(MemoryServerTest, MultipleVmImagesAccumulate) {
  MemoryServer server;
  server.Upload(SimTime::Zero(), 1, 100 * kMiB);
  server.Upload(SimTime::Zero(), 2, 200 * kMiB);
  server.Upload(SimTime::Zero(), 1, 50 * kMiB);  // differential adds on
  EXPECT_EQ(server.StoredBytes(), 350 * kMiB);
}

}  // namespace
}  // namespace oasis
