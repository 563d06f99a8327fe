#include "src/net/link.h"

#include <gtest/gtest.h>

namespace oasis {
namespace {

TEST(LinkTest, TransferTimeIsLatencyPlusSerialization) {
  Link link(100.0 * kMiB, SimTime::Millis(1));
  SimTime t = link.TransferTime(200 * kMiB);
  EXPECT_NEAR(t.seconds(), 2.001, 1e-6);
}

TEST(LinkTest, ZeroBytesCostsOnlyLatency) {
  Link link(kGigEBytesPerSec, SimTime::Micros(150));
  EXPECT_EQ(link.TransferTime(0), SimTime::Micros(150));
}

TEST(LinkTest, PaperBandwidthConstants) {
  // §4.3: SAS sustains 128 MiB/s. (§5.1's live-migration rate is checked
  // against the migration cost table in migration_model_test.)
  Link sas(kSasBytesPerSec, SimTime::Zero());
  EXPECT_NEAR(sas.TransferTime(1306 * kMiB).seconds(), 10.2, 0.05);
}

TEST(SharedChannelTest, IdleChannelStartsImmediately) {
  SharedChannel ch(Link(100.0 * kMiB, SimTime::Zero()));
  SimTime done = ch.EnqueueTransfer(SimTime::Seconds(5), 100 * kMiB);
  EXPECT_NEAR(done.seconds(), 6.0, 1e-9);
  EXPECT_EQ(ch.busy_until(), done);
}

TEST(SharedChannelTest, BackToBackTransfersQueue) {
  SharedChannel ch(Link(100.0 * kMiB, SimTime::Zero()));
  SimTime d1 = ch.EnqueueTransfer(SimTime::Zero(), 100 * kMiB);
  SimTime d2 = ch.EnqueueTransfer(SimTime::Zero(), 100 * kMiB);
  EXPECT_NEAR(d1.seconds(), 1.0, 1e-9);
  EXPECT_NEAR(d2.seconds(), 2.0, 1e-9);
}

TEST(SharedChannelTest, LateArrivalAfterDrainStartsFresh) {
  SharedChannel ch(Link(100.0 * kMiB, SimTime::Zero()));
  ch.EnqueueTransfer(SimTime::Zero(), 100 * kMiB);  // busy until 1s
  SimTime done = ch.EnqueueTransfer(SimTime::Seconds(10), 100 * kMiB);
  EXPECT_NEAR(done.seconds(), 11.0, 1e-9);
}

TEST(SharedChannelTest, QueueDelayReflectsBacklog) {
  SharedChannel ch(Link(100.0 * kMiB, SimTime::Zero()));
  EXPECT_EQ(ch.QueueDelay(SimTime::Zero()), SimTime::Zero());
  ch.EnqueueTransfer(SimTime::Zero(), 300 * kMiB);  // busy until 3s
  EXPECT_NEAR(ch.QueueDelay(SimTime::Seconds(1)).seconds(), 2.0, 1e-9);
  EXPECT_EQ(ch.QueueDelay(SimTime::Seconds(5)), SimTime::Zero());
}

TEST(SharedChannelTest, AccountsTotals) {
  SharedChannel ch(Link(kGigEBytesPerSec, SimTime::Zero()));
  ch.EnqueueTransfer(SimTime::Zero(), 10 * kMiB);
  ch.EnqueueTransfer(SimTime::Zero(), 20 * kMiB);
  EXPECT_EQ(ch.total_bytes(), 30 * kMiB);
  EXPECT_EQ(ch.total_transfers(), 2u);
}

}  // namespace
}  // namespace oasis
