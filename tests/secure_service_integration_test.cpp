// End-to-end integration of the memory-server upload path: real page
// contents, LZ compression and the dedup page store feeding
// MemoryServer::Upload, wired together the way a home host would be.

#include <gtest/gtest.h>

#include "src/hyper/memory_server.h"
#include "src/mem/compression.h"
#include "src/mem/dedup.h"
#include "src/mem/page_content.h"

namespace oasis {
namespace {

class MemoryServerDataPathTest : public ::testing::Test {
 protected:
  static constexpr VmId kVm = 42;

  MemoryServerDataPathTest() : content_(kVm) {
    // The home host compresses and uploads the touched image; the store
    // deduplicates page contents.
    for (uint64_t page = 0; page < 256; ++page) {
      PageBytes bytes = content_.Generate(page);
      store_.Insert(bytes);
      uploaded_ += LzCompress(bytes).size();
    }
    server_.Upload(SimTime::Zero(), kVm, uploaded_);
  }

  MemoryServer server_;
  DedupPageStore store_;
  PageContentGenerator content_;
  uint64_t uploaded_ = 0;
};

TEST_F(MemoryServerDataPathTest, UploadedBytesReflectRealCompression) {
  EXPECT_LT(uploaded_, 256 * kPageSize);
  EXPECT_GT(uploaded_, 256 * kPageSize / 10);
  EXPECT_EQ(server_.StoredBytes(), uploaded_);
}

TEST_F(MemoryServerDataPathTest, DedupStoreShrinksImage) {
  // Zero pages collapse; everything else in one VM image is distinct.
  EXPECT_LT(store_.StoredBytes(), store_.LogicalBytes());
  EXPECT_GT(store_.DedupFactor(), 1.05);
}

}  // namespace
}  // namespace oasis
