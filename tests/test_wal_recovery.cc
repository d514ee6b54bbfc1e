// End-to-end durability tests: HddController running over an attached
// WalManager, crashed via the SimWalStorage loss model, recovered with
// RecoverDatabase, and restarted (control state + clock handoff, the WAL
// reopened at the recovered log's end). The byte-level format tests live in test_wal_format.cc; the
// randomized model-checked sweeps in test_sim_explore.cc.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "hdd/hdd_controller.h"
#include "wal/recovery.h"
#include "wal/wal_manager.h"
#include "wal/wal_storage.h"

namespace hdd {
namespace {

// The paper's Figure 2 inventory hierarchy:
// events(0) <- inventory(1) <- orders(2) <- suppliers(3).
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

constexpr int kSegments = 4;
constexpr std::uint32_t kGranules = 2;

// One full durable system: storage is injected so it can outlive a
// "crash" of everything else.
struct System {
  std::unique_ptr<Database> db;
  std::unique_ptr<WalManager> wal;
  std::unique_ptr<HierarchySchema> schema;
  LogicalClock clock;
  std::unique_ptr<HddController> cc;
};

std::unique_ptr<System> BootSystem(WalStorage* storage, WalOptions options) {
  auto sys = std::make_unique<System>();
  sys->db = std::make_unique<Database>(kSegments, kGranules, 0);
  auto wal = WalManager::Open(storage, kSegments, options);
  EXPECT_TRUE(wal.ok());
  sys->wal = std::move(wal).value();
  sys->db->AttachWal(sys->wal.get());
  auto schema = HierarchySchema::Create(InventorySpec());
  EXPECT_TRUE(schema.ok());
  sys->schema = std::make_unique<HierarchySchema>(std::move(schema).value());
  sys->cc = std::make_unique<HddController>(sys->db.get(), &sys->clock,
                                            sys->schema.get());
  return sys;
}

// Runs one committed single-write transaction; returns its id.
TxnId CommitOne(HddController* cc, ClassId cls, GranuleRef ref, Value value) {
  auto txn = cc->Begin({.txn_class = cls});
  EXPECT_TRUE(txn.ok());
  EXPECT_TRUE(cc->Write(*txn, ref, value).ok());
  EXPECT_TRUE(cc->Commit(*txn).ok());
  return txn->id;
}

// The durable image of a pre-crash chain: committed versions whose
// creator is the initial version or a durably committed transaction.
std::vector<Version> DurableImage(const Granule& g,
                                  const std::set<TxnId>& durable) {
  std::vector<Version> out;
  for (const Version& v : g.versions()) {
    if (!v.committed) continue;
    if (v.creator != kInvalidTxn && durable.count(v.creator) == 0) continue;
    out.push_back(v);
  }
  return out;
}

void ExpectChainsMatchDurableImage(const Database& before,
                                   const Database& after,
                                   const std::set<TxnId>& durable) {
  for (int s = 0; s < before.num_segments(); ++s) {
    for (std::uint32_t g = 0; g < before.segment(s).size(); ++g) {
      const auto want = DurableImage(before.segment(s).granule(g), durable);
      const auto& got = after.segment(s).granule(g).versions();
      ASSERT_EQ(got.size(), want.size()) << "segment " << s << " granule " << g;
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].order_key, want[i].order_key);
        EXPECT_EQ(got[i].wts, want[i].wts);
        EXPECT_EQ(got[i].value, want[i].value);
        EXPECT_EQ(got[i].creator, want[i].creator);
        EXPECT_TRUE(got[i].committed);
      }
    }
  }
}

TEST(WalEndToEnd, AckedCommitsSurviveACrash) {
  SimWalStorage storage;
  WalOptions options;
  options.group.mode = WalSyncMode::kPerCommit;
  auto sys = BootSystem(&storage, options);

  std::set<TxnId> committed;
  committed.insert(CommitOne(sys->cc.get(), 0, GranuleRef{0, 0}, 11));
  committed.insert(CommitOne(sys->cc.get(), 1, GranuleRef{1, 1}, 22));
  committed.insert(CommitOne(sys->cc.get(), 0, GranuleRef{0, 0}, 33));
  committed.insert(CommitOne(sys->cc.get(), 3, GranuleRef{3, 0}, 44));

  // One transaction is mid-flight (its write is logged but uncommitted)
  // when the machine dies.
  auto doomed = sys->cc->Begin({.txn_class = 2});
  ASSERT_TRUE(doomed.ok());
  ASSERT_TRUE(sys->cc->Write(*doomed, GranuleRef{2, 0}, 666).ok());

  Rng rng(4242);
  storage.Crash(rng);

  auto recovered = std::make_unique<Database>(kSegments, kGranules, 0);
  const auto report = RecoverDatabase(&storage, recovered.get());
  ASSERT_TRUE(report.ok());
  // Every commit was acked under kPerCommit, so every one is durable.
  for (const TxnId t : committed) {
    EXPECT_EQ(report->durable_commits.count(t), 1u) << "txn " << t;
  }
  EXPECT_EQ(report->durable_commits.count(doomed->id), 0u);
  ExpectChainsMatchDurableImage(*sys->db, *recovered,
                                report->durable_commits);
  EXPECT_GE(report->max_timestamp, 1u);
  EXPECT_EQ(recovered->segment(2).granule(0).Find(doomed->init_ts), nullptr);
}

TEST(WalEndToEnd, RestartRunsOnTopOfRecoveredState) {
  SimWalStorage storage;
  WalOptions options;
  options.group.mode = WalSyncMode::kPerCommit;
  std::set<TxnId> first_era;
  Timestamp last_init_ts = 0;
  {
    auto sys = BootSystem(&storage, options);
    first_era.insert(CommitOne(sys->cc.get(), 0, GranuleRef{0, 0}, 7));
    auto txn = sys->cc->Begin({.txn_class = 1});
    ASSERT_TRUE(txn.ok());
    last_init_ts = txn->init_ts;
    ASSERT_TRUE(sys->cc->Write(*txn, GranuleRef{1, 0}, 8).ok());
    ASSERT_TRUE(sys->cc->Commit(*txn).ok());
    first_era.insert(txn->id);
    Rng rng(99);
    storage.Crash(rng);
  }

  // Reboot: recover into a fresh database, reopen the WAL (it continues at
  // the recovered log's end), advance the clock past everything
  // recovered, and restore control state (empty here — no checkpoint was
  // ever taken).
  auto recovered = std::make_unique<Database>(kSegments, kGranules, 0);
  const auto report = RecoverDatabase(&storage, recovered.get());
  ASSERT_TRUE(report.ok());
  // The recovered clock floor covers every logged initiation time (order
  // keys can never collide). Commit-tick timestamps are not logged — they
  // carry no externally visible obligation, so re-issuing them is fine.
  EXPECT_GE(report->max_timestamp, last_init_ts);

  const std::uint64_t recovered_end = storage.Size(kWalLogName).value();
  auto wal = WalManager::Open(&storage, kSegments, options);
  ASSERT_TRUE(wal.ok());
  recovered->AttachWal(wal->get());
  auto schema = HierarchySchema::Create(InventorySpec());
  ASSERT_TRUE(schema.ok());
  LogicalClock clock;
  clock.AdvanceTo(report->max_timestamp);
  HddController cc(recovered.get(), &clock, &*schema);
  ASSERT_TRUE(cc.RestoreControlState(report->control_state).ok());

  // Second era: new transactions read the recovered state and extend it.
  auto reader = cc.Begin({.txn_class = 1});
  ASSERT_TRUE(reader.ok());
  EXPECT_GT(reader->init_ts, report->max_timestamp);
  auto seen = cc.Read(*reader, GranuleRef{0, 0});
  ASSERT_TRUE(seen.ok());
  EXPECT_EQ(*seen, 7);
  ASSERT_TRUE(cc.Commit(*reader).ok());
  const TxnId second = CommitOne(&cc, 0, GranuleRef{0, 0}, 9);

  // Crash again: BOTH eras' acked commits must recover, which exercises
  // the reopened log's LSN stamps continuing across incarnations.
  Rng rng2(100);
  storage.Crash(rng2);
  auto recovered2 = std::make_unique<Database>(kSegments, kGranules, 0);
  const auto report2 = RecoverDatabase(&storage, recovered2.get());
  ASSERT_TRUE(report2.ok());
  for (const TxnId t : first_era) {
    EXPECT_EQ(report2->durable_commits.count(t), 1u);
  }
  EXPECT_EQ(report2->durable_commits.count(second), 1u);
  EXPECT_EQ(report2->incomplete_commits, 0u);
  EXPECT_GT(storage.Size(kWalLogName).value(), recovered_end);
  const Version* latest =
      recovered2->segment(0).granule(0).LatestCommitted();
  ASSERT_NE(latest, nullptr);
  EXPECT_EQ(latest->value, 9);
}

TEST(WalEndToEnd, CheckpointBoundsReplayAndCarriesControlState) {
  SimWalStorage storage;
  WalOptions options;
  options.group.mode = WalSyncMode::kPerCommit;
  auto sys = BootSystem(&storage, options);

  CommitOne(sys->cc.get(), 0, GranuleRef{0, 0}, 1);
  CommitOne(sys->cc.get(), 1, GranuleRef{1, 0}, 2);
  // Release a wall so the control state has something non-trivial in it.
  ASSERT_TRUE(sys->cc->ReleaseNewWall().ok());
  const std::size_t walls_before = sys->cc->num_walls();
  ASSERT_GE(walls_before, 1u);

  ASSERT_TRUE(sys->cc->CheckpointWal().ok());
  const auto checkpoint_metric = sys->wal->metrics().checkpoints.load();
  EXPECT_GE(checkpoint_metric, 1u);

  // Post-checkpoint work: only THIS should need replaying.
  const TxnId late = CommitOne(sys->cc.get(), 0, GranuleRef{0, 1}, 3);

  Rng rng(7);
  storage.Crash(rng);
  auto recovered = std::make_unique<Database>(kSegments, kGranules, 0);
  const auto report = RecoverDatabase(&storage, recovered.get());
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->control_state.empty());
  EXPECT_EQ(report->durable_commits.count(late), 1u);
  // The pre-checkpoint writes come from the snapshots; the only write
  // replayed is txn `late`'s. Commit records are idempotent and always
  // apply: three of them.
  EXPECT_LE(report->replayed_records, 4u);
  ExpectChainsMatchDurableImage(*sys->db, *recovered,
                                report->durable_commits);

  // The restored controller carries the released wall across the crash.
  auto schema = HierarchySchema::Create(InventorySpec());
  ASSERT_TRUE(schema.ok());
  LogicalClock clock;
  clock.AdvanceTo(report->max_timestamp);
  HddController cc(recovered.get(), &clock, &*schema);
  ASSERT_TRUE(cc.RestoreControlState(report->control_state).ok());
  EXPECT_EQ(cc.num_walls(), walls_before);

  // A read-only transaction under the restored wall sees a consistent
  // pre-checkpoint cut.
  auto ro = cc.Begin({.txn_class = kReadOnlyClass, .read_only = true});
  ASSERT_TRUE(ro.ok());
  EXPECT_TRUE(cc.Read(*ro, GranuleRef{0, 0}).ok());
  ASSERT_TRUE(cc.Commit(*ro).ok());
}

TEST(WalEndToEnd, RestoreControlStateRejectsMismatchedShape) {
  SimWalStorage storage;
  auto sys = BootSystem(&storage, WalOptions{});
  CommitOne(sys->cc.get(), 0, GranuleRef{0, 0}, 1);
  const std::string blob = sys->cc->ExportControlState();
  ASSERT_FALSE(blob.empty());

  // A two-segment schema has a different class count: restoring the
  // four-class blob must fail loudly, not silently misattribute state.
  PartitionSpec two;
  two.segment_names = {"a", "b"};
  two.transaction_types = {{"ta", 0, {}}, {"tb", 1, {0}}};
  auto schema = HierarchySchema::Create(two);
  ASSERT_TRUE(schema.ok());
  Database db(2, kGranules, 0);
  LogicalClock clock;
  HddController cc(&db, &clock, &*schema);
  EXPECT_FALSE(cc.RestoreControlState(blob).ok());
  EXPECT_FALSE(cc.RestoreControlState("garbage-blob").ok());
  EXPECT_TRUE(cc.RestoreControlState("").ok());  // empty = no-op
}

TEST(WalEndToEnd, AllSyncModesCommitAndRecover) {
  for (const WalSyncMode mode :
       {WalSyncMode::kNone, WalSyncMode::kGroupCommit,
        WalSyncMode::kPerCommit}) {
    SimWalStorage storage;
    WalOptions options;
    options.group.mode = mode;
    TxnId last = kInvalidTxn;
    {
      auto sys = BootSystem(&storage, options);
      for (int i = 0; i < 5; ++i) {
        last = CommitOne(sys->cc.get(), 0, GranuleRef{0, 0},
                         100 + i);
      }
      if (mode == WalSyncMode::kNone) {
        EXPECT_EQ(sys->wal->metrics().fsyncs.load(), 0u);
      } else {
        EXPECT_GE(sys->wal->metrics().fsyncs.load(), 1u);
      }
    }
    // No crash: even under kNone the buffered bytes are still readable,
    // so recovery reconstructs the full history in every mode.
    auto recovered = std::make_unique<Database>(kSegments, kGranules, 0);
    const auto report = RecoverDatabase(&storage, recovered.get());
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->durable_commits.count(last), 1u);
    const Version* tip = recovered->segment(0).granule(0).LatestCommitted();
    ASSERT_NE(tip, nullptr);
    EXPECT_EQ(tip->value, 104);
  }
}

TEST(WalEndToEnd, ReadOnlyAckIsDurableAgainstClockRewind) {
  // A read-only commit logs a kReadBound marker before its ack, so after
  // a crash the clock floor (max_timestamp) is at or above the bound the
  // reader observed — a post-recovery writer can never slip a version
  // underneath an answer already handed to the outside world.
  SimWalStorage storage;
  WalOptions options;
  options.group.mode = WalSyncMode::kPerCommit;
  auto sys = BootSystem(&storage, options);
  CommitOne(sys->cc.get(), 0, GranuleRef{0, 0}, 5);

  auto ro = sys->cc->Begin({.txn_class = kReadOnlyClass, .read_only = true});
  ASSERT_TRUE(ro.ok());
  ASSERT_TRUE(sys->cc->Read(*ro, GranuleRef{0, 0}).ok());
  ASSERT_TRUE(sys->cc->Commit(*ro).ok());
  const Timestamp acked_at = sys->clock.Now();

  Rng rng(321);
  storage.Crash(rng);
  auto recovered = std::make_unique<Database>(kSegments, kGranules, 0);
  const auto report = RecoverDatabase(&storage, recovered.get());
  ASSERT_TRUE(report.ok());
  EXPECT_GE(report->max_timestamp, acked_at);
}

}  // namespace
}  // namespace hdd
