#include "hdd/hdd_controller.h"

#include <gtest/gtest.h>

#include <memory>

#include "txn/dependency_graph.h"

namespace hdd {
namespace {

// The paper's Figure 2 inventory application (see test_dhg.cc):
// segments events(0) <- inventory(1) <- orders(2) <- suppliers(3).
PartitionSpec InventorySpec() {
  PartitionSpec spec;
  spec.segment_names = {"events", "inventory", "orders", "suppliers"};
  spec.transaction_types = {
      {"log_event", 0, {}},
      {"post_inventory", 1, {0}},
      {"reorder", 2, {0, 1}},
      {"supplier_profile", 3, {0, 2}},
  };
  return spec;
}

constexpr GranuleRef kEvent{0, 0};
constexpr GranuleRef kInventory{1, 0};
constexpr GranuleRef kOrder{2, 0};
constexpr GranuleRef kSupplier{3, 0};

class HddControllerTest : public ::testing::Test {
 protected:
  HddControllerTest() : db_(4, 2, 0) {
    auto schema = HierarchySchema::Create(InventorySpec());
    EXPECT_TRUE(schema.ok());
    schema_ = std::make_unique<HierarchySchema>(std::move(schema).value());
    cc_ = std::make_unique<HddController>(&db_, &clock_, schema_.get());
  }

  Database db_;
  LogicalClock clock_;
  std::unique_ptr<HierarchySchema> schema_;
  std::unique_ptr<HddController> cc_;
};

TEST_F(HddControllerTest, UpdateTxnMustDeclareClass) {
  EXPECT_FALSE(cc_->Begin({.txn_class = kReadOnlyClass}).ok());
  EXPECT_FALSE(cc_->Begin({.txn_class = 99}).ok());
  EXPECT_TRUE(cc_->Begin({.txn_class = 1}).ok());
}

TEST_F(HddControllerTest, WriteOutsideRootSegmentRejected) {
  auto txn = cc_->Begin({.txn_class = 1});
  EXPECT_EQ(cc_->Write(*txn, kEvent, 1).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(cc_->Abort(*txn).ok());
}

TEST_F(HddControllerTest, ReadBelowOwnClassRejected) {
  // Class 1 reading segment 2 (a LOWER segment) is not on a critical path
  // upward — Protocol A is undefined there.
  auto txn = cc_->Begin({.txn_class = 1});
  EXPECT_EQ(cc_->Read(*txn, kOrder).status().code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(cc_->Abort(*txn).ok());
}

TEST_F(HddControllerTest, ProtocolBReadWriteOwnSegment) {
  auto txn = cc_->Begin({.txn_class = 0});
  ASSERT_TRUE(cc_->Write(*txn, kEvent, 5).ok());
  auto value = cc_->Read(*txn, kEvent);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, 5);
  ASSERT_TRUE(cc_->Commit(*txn).ok());
  EXPECT_GT(cc_->metrics().read_timestamps_written.load(), 0u);
}

TEST_F(HddControllerTest, ProtocolAReadIsUnregisteredAndNonBlocking) {
  // An uncommitted class-0 writer does NOT block a class-1 reader: the
  // activity link steers the reader below the writer's timestamp.
  auto writer = cc_->Begin({.txn_class = 0});
  ASSERT_TRUE(cc_->Write(*writer, kEvent, 42).ok());

  auto reader = cc_->Begin({.txn_class = 1});
  auto value = cc_->Read(*reader, kEvent);  // Protocol A
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, 0);  // pre-writer state: writer is still active
  ASSERT_TRUE(cc_->Commit(*reader).ok());
  ASSERT_TRUE(cc_->Commit(*writer).ok());

  EXPECT_EQ(cc_->metrics().blocked_reads.load(), 0u);
  EXPECT_EQ(cc_->metrics().read_locks_acquired.load(), 0u);
  EXPECT_EQ(cc_->metrics().unregistered_reads.load(), 1u);
  EXPECT_TRUE(CheckSerializability(cc_->recorder()).serializable);
}

TEST_F(HddControllerTest, ProtocolASeesCommittedOlderWriter) {
  auto writer = cc_->Begin({.txn_class = 0});
  ASSERT_TRUE(cc_->Write(*writer, kEvent, 42).ok());
  ASSERT_TRUE(cc_->Commit(*writer).ok());

  auto reader = cc_->Begin({.txn_class = 1});
  auto value = cc_->Read(*reader, kEvent);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, 42);
  ASSERT_TRUE(cc_->Commit(*reader).ok());
}

TEST_F(HddControllerTest, Figure3ScriptIsSerializableUnderHdd) {
  // The very interleaving that breaks 2PL-without-read-locks (Figure 3):
  // under HDD the type-3 transaction's unregistered reads are steered to
  // a consistent cut, so the outcome is serializable.
  auto t3 = cc_->Begin({.txn_class = 2});
  auto y0 = cc_->Read(*t3, kEvent);  // Protocol A
  ASSERT_TRUE(y0.ok());
  EXPECT_EQ(*y0, 0);

  auto t1 = cc_->Begin({.txn_class = 0});
  ASSERT_TRUE(cc_->Write(*t1, kEvent, 1).ok());
  ASSERT_TRUE(cc_->Commit(*t1).ok());

  auto t2 = cc_->Begin({.txn_class = 1});
  auto y1 = cc_->Read(*t2, kEvent);
  ASSERT_TRUE(y1.ok());
  EXPECT_EQ(*y1, 1);
  ASSERT_TRUE(cc_->Write(*t2, kInventory, *y1).ok());
  ASSERT_TRUE(cc_->Commit(*t2).ok());

  // t3 now reads the inventory: the activity link pins it BEFORE t2's
  // posting (t3 is older), keeping the view consistent with its earlier
  // unregistered read of the event record.
  auto x = cc_->Read(*t3, kInventory);
  ASSERT_TRUE(x.ok());
  EXPECT_EQ(*x, 0);
  ASSERT_TRUE(cc_->Write(*t3, kOrder, *x + *y0).ok());
  ASSERT_TRUE(cc_->Commit(*t3).ok());

  auto report = CheckSerializability(cc_->recorder());
  EXPECT_TRUE(report.serializable);
  EXPECT_EQ(cc_->metrics().read_locks_acquired.load(), 0u);
  EXPECT_EQ(cc_->metrics().aborts.load(), 0u);
}

TEST_F(HddControllerTest, ProtocolBConflictsStillDetected) {
  // Within a class, HDD is plain (MV)TO: a late write under a younger
  // registered read aborts.
  auto old_txn = cc_->Begin({.txn_class = 0});
  auto young_txn = cc_->Begin({.txn_class = 0});
  ASSERT_TRUE(cc_->Read(*young_txn, kEvent).ok());
  ASSERT_TRUE(cc_->Commit(*young_txn).ok());
  EXPECT_EQ(cc_->Write(*old_txn, kEvent, 1).code(), StatusCode::kAborted);
  ASSERT_TRUE(cc_->Abort(*old_txn).ok());
}

TEST_F(HddControllerTest, ProtocolCReadOnlyUsesWall) {
  auto t1 = cc_->Begin({.txn_class = 0});
  ASSERT_TRUE(cc_->Write(*t1, kEvent, 10).ok());
  ASSERT_TRUE(cc_->Commit(*t1).ok());

  auto reader = cc_->Begin({.read_only = true});
  auto value = cc_->Read(*reader, kEvent);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, 10);
  // Reads from several segments under one wall.
  auto inv = cc_->Read(*reader, kInventory);
  ASSERT_TRUE(inv.ok());
  auto sup = cc_->Read(*reader, kSupplier);
  ASSERT_TRUE(sup.ok());
  ASSERT_TRUE(cc_->Commit(*reader).ok());
  EXPECT_GE(cc_->num_walls(), 1u);
  EXPECT_EQ(cc_->metrics().read_locks_acquired.load(), 0u);
  EXPECT_TRUE(CheckSerializability(cc_->recorder()).serializable);
}

TEST_F(HddControllerTest, ProtocolCSnapshotIsStable) {
  auto reader = cc_->Begin({.read_only = true});
  auto before = cc_->Read(*reader, kEvent);
  ASSERT_TRUE(before.ok());

  auto writer = cc_->Begin({.txn_class = 0});
  ASSERT_TRUE(cc_->Write(*writer, kEvent, 99).ok());
  ASSERT_TRUE(cc_->Commit(*writer).ok());

  auto after = cc_->Read(*reader, kEvent);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*before, *after);  // same wall, same view
  ASSERT_TRUE(cc_->Commit(*reader).ok());
}

TEST_F(HddControllerTest, WallReusedByLaterReaders) {
  ASSERT_TRUE(cc_->ReleaseNewWall().ok());
  const std::size_t walls = cc_->num_walls();
  auto r1 = cc_->Begin({.read_only = true});
  auto r2 = cc_->Begin({.read_only = true});
  ASSERT_TRUE(cc_->Read(*r1, kEvent).ok());
  ASSERT_TRUE(cc_->Read(*r2, kInventory).ok());
  ASSERT_TRUE(cc_->Commit(*r1).ok());
  ASSERT_TRUE(cc_->Commit(*r2).ok());
  EXPECT_EQ(cc_->num_walls(), walls);  // no new wall computed
}

TEST_F(HddControllerTest, AbortRemovesVersionsAndActivity) {
  auto txn = cc_->Begin({.txn_class = 0});
  ASSERT_TRUE(cc_->Write(*txn, kEvent, 7).ok());
  ASSERT_TRUE(cc_->Abort(*txn).ok());
  auto reader = cc_->Begin({.txn_class = 1});
  auto value = cc_->Read(*reader, kEvent);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, 0);
  ASSERT_TRUE(cc_->Commit(*reader).ok());
}

TEST_F(HddControllerTest, SafeGcHorizonTracksActivity) {
  const Timestamp idle_horizon = cc_->SafeGcHorizon();
  EXPECT_EQ(idle_horizon, clock_.Now() + 1);
  auto txn = cc_->Begin({.txn_class = 0});
  EXPECT_LE(cc_->SafeGcHorizon(), txn->init_ts);
  ASSERT_TRUE(cc_->Commit(*txn).ok());
  EXPECT_EQ(cc_->SafeGcHorizon(), clock_.Now() + 1);
}

TEST_F(HddControllerTest, GcKeepsVersionsReadersNeed) {
  for (int i = 1; i <= 5; ++i) {
    auto txn = cc_->Begin({.txn_class = 0});
    ASSERT_TRUE(cc_->Write(*txn, kEvent, i).ok());
    ASSERT_TRUE(cc_->Commit(*txn).ok());
  }
  EXPECT_EQ(db_.granule(kEvent).num_versions(), 6u);
  db_.CollectGarbage(cc_->SafeGcHorizon());
  EXPECT_EQ(db_.granule(kEvent).num_versions(), 1u);
  auto reader = cc_->Begin({.txn_class = 1});
  auto value = cc_->Read(*reader, kEvent);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, 5);
  ASSERT_TRUE(cc_->Commit(*reader).ok());
}

// Regression: a wall reader that began before a wall release and first
// reads after a collection. Its wall is the one released before its Begin,
// no longer the newest; Begin pins it, so the collection keeps the version
// the reader is owed.
TEST_F(HddControllerTest, WallReaderBegunBeforeReleaseSurvivesGc) {
  auto t1 = cc_->Begin({.txn_class = 0});
  ASSERT_TRUE(cc_->Write(*t1, kEvent, 1).ok());
  ASSERT_TRUE(cc_->Commit(*t1).ok());
  ASSERT_TRUE(cc_->ReleaseNewWall().ok());

  auto reader = cc_->Begin({.read_only = true});
  ASSERT_TRUE(reader.ok());
  auto t2 = cc_->Begin({.txn_class = 0});
  ASSERT_TRUE(cc_->Write(*t2, kEvent, 2).ok());
  ASSERT_TRUE(cc_->Commit(*t2).ok());
  ASSERT_TRUE(cc_->ReleaseNewWall().ok());
  cc_->CollectGarbage();

  auto value = cc_->Read(*reader, kEvent);
  ASSERT_TRUE(value.ok()) << value.status();
  EXPECT_EQ(*value, 1);
  ASSERT_TRUE(cc_->Commit(*reader).ok());
  EXPECT_TRUE(CheckSerializability(cc_->recorder()).serializable);
}

// Regression: a hosted reader is in no class table, yet reads below a
// bound derived from its I(t); the collection must not prune past it.
TEST_F(HddControllerTest, HostedReaderBegunBeforeReleaseSurvivesGc) {
  auto t1 = cc_->Begin({.txn_class = 0});
  ASSERT_TRUE(cc_->Write(*t1, kEvent, 1).ok());
  ASSERT_TRUE(cc_->Commit(*t1).ok());

  auto reader = cc_->Begin({.read_only = true, .read_scope = {1, 0}});
  ASSERT_TRUE(reader.ok());
  EXPECT_LE(cc_->SafeGcHorizon(), reader->init_ts);
  auto t2 = cc_->Begin({.txn_class = 0});
  ASSERT_TRUE(cc_->Write(*t2, kEvent, 2).ok());
  ASSERT_TRUE(cc_->Commit(*t2).ok());
  ASSERT_TRUE(cc_->ReleaseNewWall().ok());
  cc_->CollectGarbage();

  auto value = cc_->Read(*reader, kEvent);
  ASSERT_TRUE(value.ok()) << value.status();
  EXPECT_EQ(*value, 1);
  ASSERT_TRUE(cc_->Commit(*reader).ok());
  // Finished, the reader no longer holds the horizon back.
  EXPECT_GT(cc_->SafeGcHorizon(), reader->init_ts);
  EXPECT_TRUE(CheckSerializability(cc_->recorder()).serializable);
}

TEST_F(HddControllerTest, RestructureMergesClasses) {
  // Ad-hoc pattern: write events AND inventory in one transaction.
  auto merged = cc_->Restructure({0, 1}, {});
  ASSERT_TRUE(merged.ok()) << merged.status();
  EXPECT_EQ(cc_->ClassOfSegment(0), *merged);
  EXPECT_EQ(cc_->ClassOfSegment(1), *merged);

  auto txn = cc_->Begin({.txn_class = *merged});
  ASSERT_TRUE(cc_->Write(*txn, kEvent, 1).ok());
  ASSERT_TRUE(cc_->Write(*txn, kInventory, 2).ok());
  ASSERT_TRUE(cc_->Commit(*txn).ok());

  // Other classes keep working, remapped onto the merged hierarchy.
  auto reorder = cc_->Begin({.txn_class = cc_->ClassOfSegment(2)});
  ASSERT_TRUE(cc_->Read(*reorder, kEvent).ok());
  ASSERT_TRUE(cc_->Read(*reorder, kInventory).ok());
  ASSERT_TRUE(cc_->Write(*reorder, kOrder, 3).ok());
  ASSERT_TRUE(cc_->Commit(*reorder).ok());

  EXPECT_TRUE(CheckSerializability(cc_->recorder()).serializable);
}

// A wall released before a Restructure stays the consistent cut it was.
// Here its events bound stops below a long-running events transaction X,
// while its inventory bound admits a post_inventory write that an earlier
// events write must follow (the writer read events before it). Merging
// events and inventory must not cut inventory at the events bound: that
// would show the later write without the earlier one.
TEST_F(HddControllerTest, WallSurvivesRestructureAsTheSameCut) {
  auto t4 = cc_->Begin({.txn_class = 0});
  ASSERT_TRUE(cc_->Write(*t4, kEvent, 4).ok());
  auto x = cc_->Begin({.txn_class = 0});
  auto t6 = cc_->Begin({.txn_class = 1});
  auto before_t4 = cc_->Read(*t6, kEvent);  // bound I(t4): t6 precedes t4
  ASSERT_TRUE(before_t4.ok());
  EXPECT_EQ(*before_t4, 0);
  ASSERT_TRUE(cc_->Write(*t6, kInventory, 6).ok());
  ASSERT_TRUE(cc_->Commit(*t6).ok());
  ASSERT_TRUE(cc_->Commit(*t4).ok());
  ASSERT_TRUE(cc_->ReleaseNewWall().ok());  // events cut at I(x)
  ASSERT_TRUE(cc_->Commit(*x).ok());
  ASSERT_TRUE(cc_->Restructure({0, 1}, {}).ok());

  auto reader = cc_->Begin({.read_only = true});
  auto event = cc_->Read(*reader, kEvent);
  auto inventory = cc_->Read(*reader, kInventory);
  ASSERT_TRUE(event.ok() && inventory.ok());
  EXPECT_EQ(*event, 4);
  EXPECT_EQ(*inventory, 6);
  ASSERT_TRUE(cc_->Commit(*reader).ok());
  EXPECT_TRUE(CheckSerializability(cc_->recorder()).serializable);
}

TEST_F(HddControllerTest, RestructureKeepsUnrelatedClassesLive) {
  // A supplier-class transaction stays active across a merge of 0 and 1.
  auto live = cc_->Begin({.txn_class = 3});
  ASSERT_TRUE(cc_->Write(*live, kSupplier, 5).ok());
  auto merged = cc_->Restructure({0, 1}, {});
  ASSERT_TRUE(merged.ok());
  ASSERT_TRUE(cc_->Commit(*live).ok());
  EXPECT_TRUE(CheckSerializability(cc_->recorder()).serializable);
}

TEST_F(HddControllerTest, BasicToProtocolBVariant) {
  HddControllerOptions options;
  options.protocol_b = ProtocolBEngine::kBasicTo;
  HddController cc(&db_, &clock_, schema_.get(), options);
  auto old_txn = cc.Begin({.txn_class = 0});
  auto young_txn = cc.Begin({.txn_class = 0});
  ASSERT_TRUE(cc.Write(*young_txn, kEvent, 9).ok());
  ASSERT_TRUE(cc.Commit(*young_txn).ok());
  // Basic TO rejects the old transaction's READ of a younger version.
  EXPECT_EQ(cc.Read(*old_txn, kEvent).status().code(),
            StatusCode::kAborted);
  ASSERT_TRUE(cc.Abort(*old_txn).ok());
}

TEST_F(HddControllerTest, InventoryPipelineEndToEnd) {
  // Runs the paper's full motivating pipeline and audits serializability.
  for (int round = 0; round < 10; ++round) {
    auto t1 = cc_->Begin({.txn_class = 0});
    auto ev = cc_->Read(*t1, kEvent);
    ASSERT_TRUE(ev.ok());
    ASSERT_TRUE(cc_->Write(*t1, kEvent, *ev + 1).ok());
    ASSERT_TRUE(cc_->Commit(*t1).ok());

    auto t2 = cc_->Begin({.txn_class = 1});
    auto total = cc_->Read(*t2, kEvent);
    ASSERT_TRUE(total.ok());
    ASSERT_TRUE(cc_->Write(*t2, kInventory, *total).ok());
    ASSERT_TRUE(cc_->Commit(*t2).ok());

    auto t3 = cc_->Begin({.txn_class = 2});
    auto inv = cc_->Read(*t3, kInventory);
    auto arr = cc_->Read(*t3, kEvent);
    ASSERT_TRUE(inv.ok());
    ASSERT_TRUE(arr.ok());
    ASSERT_TRUE(cc_->Write(*t3, kOrder, *inv + *arr).ok());
    ASSERT_TRUE(cc_->Commit(*t3).ok());
  }
  auto report = CheckSerializability(cc_->recorder());
  EXPECT_TRUE(report.serializable);
  EXPECT_EQ(cc_->metrics().aborts.load(), 0u);
  EXPECT_EQ(cc_->metrics().blocked_reads.load(), 0u);
  // Cross-class reads were never registered.
  EXPECT_GT(cc_->metrics().unregistered_reads.load(), 0u);
}

}  // namespace
}  // namespace hdd
