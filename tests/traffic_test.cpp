#include "src/net/traffic.h"

#include <gtest/gtest.h>

#include "src/common/units.h"

namespace oasis {
namespace {

TEST(TrafficTest, StartsEmpty) {
  TrafficAccounting t;
  EXPECT_EQ(t.NetworkTotal(), 0u);
  EXPECT_EQ(t.PartialMigrationTotal(), 0u);
  for (int c = 0; c < static_cast<int>(TrafficCategory::kCategoryCount); ++c) {
    EXPECT_EQ(t.Total(static_cast<TrafficCategory>(c)), 0u);
    EXPECT_EQ(t.Count(static_cast<TrafficCategory>(c)), 0u);
  }
}

TEST(TrafficTest, AddAccumulatesBytesAndCounts) {
  TrafficAccounting t;
  t.Add(TrafficCategory::kFullMigration, 4 * kGiB);
  t.Add(TrafficCategory::kFullMigration, 4 * kGiB);
  EXPECT_EQ(t.Total(TrafficCategory::kFullMigration), 8 * kGiB);
  EXPECT_EQ(t.Count(TrafficCategory::kFullMigration), 2u);
  // A batched add counts each transfer it folds.
  t.Add(TrafficCategory::kFullMigration, 12 * kGiB, 3);
  EXPECT_EQ(t.Total(TrafficCategory::kFullMigration), 20 * kGiB);
  EXPECT_EQ(t.Count(TrafficCategory::kFullMigration), 5u);
}

TEST(TrafficTest, MemoryUploadStaysOffTheNetwork) {
  // §4.3: SAS traffic does not reach the datacenter network.
  TrafficAccounting t;
  t.Add(TrafficCategory::kMemoryUpload, 1306 * kMiB);
  t.Add(TrafficCategory::kPartialDescriptor, 16 * kMiB);
  EXPECT_EQ(t.NetworkTotal(), 16 * kMiB);
}

TEST(TrafficTest, PartialMigrationGrouping) {
  TrafficAccounting t;
  t.Add(TrafficCategory::kPartialDescriptor, 16 * kMiB);
  t.Add(TrafficCategory::kOnDemandPages, 57 * kMiB);
  t.Add(TrafficCategory::kReintegration, 175 * kMiB);
  t.Add(TrafficCategory::kFullMigration, 4 * kGiB);
  EXPECT_EQ(t.PartialMigrationTotal(), (16 + 57 + 175) * kMiB);
}

TEST(TrafficTest, MergeAndReset) {
  TrafficAccounting a;
  TrafficAccounting b;
  a.Add(TrafficCategory::kReintegration, 100);
  b.Add(TrafficCategory::kReintegration, 200);
  b.Add(TrafficCategory::kFullMigration, 50);
  a.MergeFrom(b);
  EXPECT_EQ(a.Total(TrafficCategory::kReintegration), 300u);
  EXPECT_EQ(a.Count(TrafficCategory::kReintegration), 2u);
  EXPECT_EQ(a.Total(TrafficCategory::kFullMigration), 50u);
  a.Reset();
  EXPECT_EQ(a.NetworkTotal(), 0u);
}

TEST(TrafficTest, SummaryMentionsEveryCategory) {
  TrafficAccounting t;
  std::string s = t.Summary();
  EXPECT_NE(s.find("full-migration"), std::string::npos);
  EXPECT_NE(s.find("partial-descriptor"), std::string::npos);
  EXPECT_NE(s.find("memory-upload"), std::string::npos);
  EXPECT_NE(s.find("on-demand-pages"), std::string::npos);
  EXPECT_NE(s.find("reintegration"), std::string::npos);
}

TEST(TrafficTest, CategoryNames) {
  EXPECT_STREQ(TrafficCategoryName(TrafficCategory::kFullMigration), "full-migration");
  EXPECT_STREQ(TrafficCategoryName(TrafficCategory::kMemoryUpload), "memory-upload");
}

}  // namespace
}  // namespace oasis
