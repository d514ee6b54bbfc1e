#include "storage/database.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>

namespace hdd {
namespace {

TEST(DatabaseTest, NamedSegments) {
  Database db({"events", "inventory"}, 4, 7);
  EXPECT_EQ(db.num_segments(), 2);
  EXPECT_EQ(db.segment(0).name(), "events");
  EXPECT_EQ(db.segment(1).name(), "inventory");
  EXPECT_EQ(db.segment(0).size(), 4u);
  EXPECT_EQ(db.granule({0, 3}).LatestCommitted()->value, 7);
}

TEST(DatabaseTest, NumberedSegments) {
  Database db(3, 2);
  EXPECT_EQ(db.num_segments(), 3);
  EXPECT_EQ(db.segment(2).name(), "D2");
}

TEST(DatabaseTest, ValidateRef) {
  Database db(2, 3);
  EXPECT_TRUE(db.Validate({0, 0}).ok());
  EXPECT_TRUE(db.Validate({1, 2}).ok());
  EXPECT_FALSE(db.Validate({2, 0}).ok());
  EXPECT_FALSE(db.Validate({-1, 0}).ok());
  EXPECT_FALSE(db.Validate({0, 3}).ok());
}

// Validate runs on every Read/Write; it reads the published granule count
// and must not queue behind a holder of the segment latch.
TEST(DatabaseTest, ValidateTakesNoSegmentLatch) {
  Database db(1, 4);
  std::unique_lock<std::mutex> held(db.segment(0).latch());
  std::atomic<int> verdict{-1};
  std::thread validator([&] {
    const bool ok = db.Validate({0, 3}).ok() && !db.Validate({0, 4}).ok();
    verdict.store(ok ? 1 : 0);
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (verdict.load() < 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const int seen = verdict.load();
  held.unlock();
  validator.join();
  EXPECT_EQ(seen, 1) << (seen < 0 ? "Validate blocked on the segment latch"
                                  : "Validate answered wrongly");
}

TEST(DatabaseTest, AllocateExtendsSegment) {
  Database db(1, 1);
  const std::uint32_t idx = db.segment(0).Allocate(55);
  EXPECT_EQ(idx, 1u);
  EXPECT_TRUE(db.Validate({0, idx}).ok());
  EXPECT_EQ(db.granule({0, idx}).LatestCommitted()->value, 55);
}

TEST(DatabaseTest, AllocateKeepsExistingGranuleAddressesStable) {
  Database db(1, 2);
  Granule* before = &db.granule({0, 0});
  for (int i = 0; i < 1000; ++i) db.segment(0).Allocate(0);
  EXPECT_EQ(before, &db.granule({0, 0}));
}

TEST(DatabaseTest, TotalVersionsCountsChains) {
  Database db(2, 2);
  EXPECT_EQ(db.TotalVersions(), 4u);
  Version v;
  v.order_key = 5;
  v.wts = 5;
  v.creator = 1;
  v.committed = true;
  ASSERT_TRUE(db.granule({0, 0}).Insert(v).ok());
  EXPECT_EQ(db.TotalVersions(), 5u);
}

TEST(DatabaseTest, CollectGarbageAcrossSegments) {
  Database db(2, 1);
  for (SegmentId s = 0; s < 2; ++s) {
    for (Timestamp ts = 10; ts <= 30; ts += 10) {
      Version v;
      v.order_key = ts;
      v.wts = ts;
      v.creator = ts;
      v.committed = true;
      ASSERT_TRUE(db.granule({s, 0}).Insert(v).ok());
    }
  }
  EXPECT_EQ(db.TotalVersions(), 8u);
  // Horizon 100: keep only the newest committed version per granule.
  EXPECT_EQ(db.CollectGarbage(100), 6u);
  EXPECT_EQ(db.TotalVersions(), 2u);
}

}  // namespace
}  // namespace hdd
