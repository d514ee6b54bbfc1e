#include "storage/granule.h"

#include <gtest/gtest.h>

namespace hdd {
namespace {

Version MakeVersion(std::uint64_t order_key, Timestamp wts, TxnId creator,
                    Value value, bool committed) {
  Version v;
  v.order_key = order_key;
  v.wts = wts;
  v.creator = creator;
  v.value = value;
  v.committed = committed;
  return v;
}

TEST(GranuleTest, InitialVersionPresent) {
  Granule g(100);
  EXPECT_EQ(g.num_versions(), 1u);
  const Version* latest = g.LatestCommitted();
  ASSERT_NE(latest, nullptr);
  EXPECT_EQ(latest->value, 100);
  EXPECT_EQ(latest->wts, kTimestampMin);
  EXPECT_TRUE(latest->committed);
}

TEST(GranuleTest, InsertKeepsOrder) {
  Granule g(0);
  ASSERT_TRUE(g.Insert(MakeVersion(30, 30, 3, 33, true)).ok());
  ASSERT_TRUE(g.Insert(MakeVersion(10, 10, 1, 11, true)).ok());
  ASSERT_TRUE(g.Insert(MakeVersion(20, 20, 2, 22, true)).ok());
  ASSERT_EQ(g.num_versions(), 4u);
  for (std::size_t i = 0; i + 1 < g.versions().size(); ++i) {
    EXPECT_LT(g.versions()[i].order_key, g.versions()[i + 1].order_key);
  }
}

TEST(GranuleTest, DuplicateOrderKeyRejected) {
  Granule g(0);
  ASSERT_TRUE(g.Insert(MakeVersion(5, 5, 1, 1, true)).ok());
  EXPECT_EQ(g.Insert(MakeVersion(5, 5, 2, 2, true)).code(),
            StatusCode::kAlreadyExists);
}

TEST(GranuleTest, LatestCommittedBeforeBound) {
  Granule g(0);
  g.Insert(MakeVersion(10, 10, 1, 11, true));
  g.Insert(MakeVersion(20, 20, 2, 22, true));
  g.Insert(MakeVersion(30, 30, 3, 33, false));  // uncommitted

  const Version* v = g.LatestCommittedBefore(25);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->value, 22);

  v = g.LatestCommittedBefore(15);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->value, 11);

  // Uncommitted version 30 is invisible even with a high bound.
  v = g.LatestCommittedBefore(100);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->value, 22);
}

TEST(GranuleTest, BoundIsExclusive) {
  Granule g(0);
  g.Insert(MakeVersion(10, 10, 1, 11, true));
  const Version* v = g.LatestCommittedBefore(10);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->wts, kTimestampMin);  // initial version, not wts==10
}

TEST(GranuleTest, VersionBeforeSeesUncommitted) {
  Granule g(0);
  g.Insert(MakeVersion(10, 10, 1, 11, false));
  Version* v = g.VersionBefore(15);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->wts, 10u);
  EXPECT_FALSE(v->committed);
}

TEST(GranuleTest, MaxRtsOfVersionsBefore) {
  Granule g(0);
  Version v1 = MakeVersion(10, 10, 1, 0, true);
  v1.rts = 17;
  g.Insert(v1);
  Version v2 = MakeVersion(20, 20, 2, 0, true);
  v2.rts = 25;
  g.Insert(v2);
  EXPECT_EQ(g.MaxRtsOfVersionsBefore(15), 17u);
  EXPECT_EQ(g.MaxRtsOfVersionsBefore(30), 25u);
  EXPECT_EQ(g.MaxRtsOfVersionsBefore(5), kTimestampMin);
}

TEST(GranuleTest, NextWtsAfter) {
  Granule g(0);
  g.Insert(MakeVersion(10, 10, 1, 0, true));
  g.Insert(MakeVersion(20, 20, 2, 0, true));
  EXPECT_EQ(g.NextWtsAfter(5), 10u);
  EXPECT_EQ(g.NextWtsAfter(10), 20u);
  EXPECT_EQ(g.NextWtsAfter(20), kTimestampInfinity);
}

TEST(GranuleTest, RemoveAbortedVersion) {
  Granule g(0);
  g.Insert(MakeVersion(10, 10, 1, 0, false));
  EXPECT_TRUE(g.Remove(10).ok());
  EXPECT_EQ(g.num_versions(), 1u);
  EXPECT_EQ(g.Remove(10).code(), StatusCode::kNotFound);
}

TEST(GranuleTest, MarkCommitted) {
  Granule g(0);
  g.Insert(MakeVersion(10, 10, 1, 42, false));
  EXPECT_EQ(g.LatestCommittedBefore(100)->value, 0);
  EXPECT_TRUE(g.MarkCommitted(10).ok());
  EXPECT_EQ(g.LatestCommittedBefore(100)->value, 42);
  EXPECT_EQ(g.MarkCommitted(99).code(), StatusCode::kNotFound);
}

TEST(GranuleTest, FindByOrderKey) {
  Granule g(0);
  g.Insert(MakeVersion(10, 10, 7, 1, true));
  ASSERT_NE(g.Find(10), nullptr);
  EXPECT_EQ(g.Find(10)->creator, 7u);
  EXPECT_EQ(g.Find(11), nullptr);
}

TEST(GranulePruneTest, KeepsSnapshotBase) {
  Granule g(0);
  g.Insert(MakeVersion(10, 10, 1, 11, true));
  g.Insert(MakeVersion(20, 20, 2, 22, true));
  g.Insert(MakeVersion(30, 30, 3, 33, true));
  // Horizon 25: base is version 20; versions 0 and 10 go away.
  EXPECT_EQ(g.Prune(25), 2u);
  EXPECT_EQ(g.num_versions(), 2u);
  ASSERT_NE(g.LatestCommittedBefore(25), nullptr);
  EXPECT_EQ(g.LatestCommittedBefore(25)->value, 22);
  EXPECT_EQ(g.LatestCommittedBefore(100)->value, 33);
}

TEST(GranulePruneTest, UncommittedRetained) {
  Granule g(0);
  g.Insert(MakeVersion(10, 10, 1, 11, false));
  g.Insert(MakeVersion(20, 20, 2, 22, true));
  // Base is version 20 (committed); the uncommitted version 10 survives.
  EXPECT_EQ(g.Prune(100), 1u);  // only initial version removed
  EXPECT_EQ(g.num_versions(), 2u);
  EXPECT_NE(g.Find(10), nullptr);
}

TEST(GranulePruneTest, NoOpWithoutBase) {
  Granule g(0);
  g.Insert(MakeVersion(10, 10, 1, 11, true));
  EXPECT_EQ(g.Prune(kTimestampMin), 0u);  // nothing below wts 0
  EXPECT_EQ(g.num_versions(), 2u);
}

// A one-version chain is its own snapshot base: Prune must keep it, at any
// horizon, whether the version is committed or not.
TEST(GranulePruneTest, SingleVersionChainIsLeftAlone) {
  Granule fresh(5);
  EXPECT_EQ(fresh.Prune(kTimestampInfinity), 0u);
  ASSERT_EQ(fresh.num_versions(), 1u);
  EXPECT_EQ(fresh.LatestCommitted()->value, 5);

  Granule restored(0);
  ASSERT_TRUE(
      restored.RestoreVersions({MakeVersion(40, 40, 4, 44, true)}).ok());
  EXPECT_EQ(restored.Prune(100), 0u);
  ASSERT_EQ(restored.num_versions(), 1u);
  EXPECT_EQ(restored.LatestCommittedBefore(100)->value, 44);

  Granule pending(0);
  ASSERT_TRUE(
      pending.RestoreVersions({MakeVersion(50, 50, 5, 55, false)}).ok());
  EXPECT_EQ(pending.Prune(kTimestampInfinity), 0u);
  EXPECT_NE(pending.Find(50), nullptr);
}

TEST(GranulePruneTest, IdempotentAtSameHorizon) {
  Granule g(0);
  g.Insert(MakeVersion(10, 10, 1, 11, true));
  g.Insert(MakeVersion(20, 20, 2, 22, true));
  EXPECT_GT(g.Prune(25), 0u);
  EXPECT_EQ(g.Prune(25), 0u);
}

}  // namespace
}  // namespace hdd
