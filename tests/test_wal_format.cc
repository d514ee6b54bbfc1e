// Unit tests of the WAL's on-disk layer (src/wal/): CRC framing, record
// encoding, the SimWalStorage crash model, the redo log, group commit,
// fuzzy checkpoints and crash recovery over hand-built databases. The
// end-to-end controller-level recovery tests live in test_wal_recovery.cc;
// the model-checked crash sweeps in test_sim_explore.cc.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "storage/database.h"
#include "wal/checkpoint.h"
#include "wal/log_format.h"
#include "wal/recovery.h"
#include "wal/wal_manager.h"
#include "wal/wal_storage.h"

namespace hdd {
namespace {

// ---------------------------------------------------------------------------
// Framing.

TEST(WalFormat, Crc32KnownVector) {
  // The IEEE CRC-32 of "123456789" is the classic check value.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
}

TEST(WalFormat, ScanEmptyLog) {
  const auto scan = ScanFrames("");
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan->frames.empty());
  EXPECT_EQ(scan->valid_end, 0u);
  EXPECT_FALSE(scan->torn_tail);
}

TEST(WalFormat, ScanRoundTrip) {
  std::string log;
  AppendFrame(&log, "alpha");
  AppendFrame(&log, "beta");
  const auto scan = ScanFrames(log);
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->frames.size(), 2u);
  EXPECT_EQ(scan->frames[0].payload, "alpha");
  EXPECT_EQ(scan->frames[1].payload, "beta");
  EXPECT_EQ(scan->valid_end, log.size());
  EXPECT_FALSE(scan->torn_tail);
}

TEST(WalFormat, TruncatedTailIsTornNotCorrupt) {
  std::string log;
  AppendFrame(&log, "alpha");
  AppendFrame(&log, "beta");
  const std::size_t intact = log.size();
  AppendFrame(&log, "gamma-longer-payload");
  // Chop the last frame at every possible length: always a torn tail,
  // never corruption, and the valid prefix always holds the two frames.
  for (std::size_t cut = intact; cut < log.size(); ++cut) {
    const auto scan = ScanFrames(std::string_view(log).substr(0, cut));
    ASSERT_TRUE(scan.ok()) << "cut=" << cut;
    EXPECT_EQ(scan->frames.size(), 2u) << "cut=" << cut;
    EXPECT_EQ(scan->valid_end, intact) << "cut=" << cut;
    EXPECT_EQ(scan->torn_tail, cut > intact) << "cut=" << cut;
  }
}

TEST(WalFormat, BitFlipIsCorruption) {
  std::string log;
  AppendFrame(&log, "alpha");
  AppendFrame(&log, "beta");
  // Flip one bit in the middle of the first payload: the frame is complete
  // so this must be a loud kCorruption, not a silent truncation.
  log[kFrameHeaderBytes + 2] ^= 0x20;
  const auto scan = ScanFrames(log);
  ASSERT_FALSE(scan.ok());
  EXPECT_EQ(scan.status().code(), StatusCode::kCorruption);
}

TEST(WalFormat, InsaneLengthIsCorruption) {
  std::string log;
  // A zero-length frame is never written; a complete header claiming one
  // cannot be a torn tail.
  PutU32(&log, 0);
  PutU32(&log, 0);
  auto scan = ScanFrames(log);
  ASSERT_FALSE(scan.ok());
  EXPECT_EQ(scan.status().code(), StatusCode::kCorruption);

  log.clear();
  PutU32(&log, kMaxFramePayload + 1);
  PutU32(&log, 0x1234);
  scan = ScanFrames(log);
  ASSERT_FALSE(scan.ok());
  EXPECT_EQ(scan.status().code(), StatusCode::kCorruption);
}

// ---------------------------------------------------------------------------
// Record encoding.

TEST(WalFormat, RecordRoundTrip) {
  WalRecord write;
  write.type = WalRecordType::kWrite;
  write.lsn = 41;
  write.txn = 7;
  write.init_ts = 1234;
  write.segment = 5;
  write.granule = 3;
  write.value = -99;
  const auto decoded = DecodeWalRecord(EncodeWalRecord(write));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->type, WalRecordType::kWrite);
  EXPECT_EQ(decoded->lsn, 41u);
  EXPECT_EQ(decoded->txn, 7u);
  EXPECT_EQ(decoded->init_ts, 1234u);
  EXPECT_EQ(decoded->segment, 5);
  EXPECT_EQ(decoded->granule, 3u);
  EXPECT_EQ(decoded->value, -99);

  WalRecord commit;
  commit.type = WalRecordType::kCommit;
  commit.lsn = 42;
  commit.txn = 7;
  commit.init_ts = 1234;
  const auto commit_decoded = DecodeWalRecord(EncodeWalRecord(commit));
  ASSERT_TRUE(commit_decoded.ok());
  EXPECT_EQ(commit_decoded->type, WalRecordType::kCommit);
  EXPECT_EQ(commit_decoded->lsn, 42u);
  EXPECT_EQ(commit_decoded->txn, 7u);

  WalRecord bound;
  bound.type = WalRecordType::kReadBound;
  bound.lsn = 43;
  bound.init_ts = 777;
  const auto bound_decoded = DecodeWalRecord(EncodeWalRecord(bound));
  ASSERT_TRUE(bound_decoded.ok());
  EXPECT_EQ(bound_decoded->type, WalRecordType::kReadBound);
  EXPECT_EQ(bound_decoded->init_ts, 777u);
}

TEST(WalFormat, SealedFrameCarriesItsLsnAndScans) {
  WalRecord write;
  write.type = WalRecordType::kWrite;
  write.txn = 7;
  write.segment = 1;
  write.value = 5;
  std::string frame = EncodeUnsealedWalFrame(write);
  SealWalFrame(&frame, 123456);
  // Same bytes as framing the record encoded with that LSN.
  write.lsn = 123456;
  std::string expected;
  AppendFrame(&expected, EncodeWalRecord(write));
  EXPECT_EQ(frame, expected);
  const auto scan = ScanFrames(frame);
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->frames.size(), 1u);
  const auto decoded = DecodeWalRecord(scan->frames[0].payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->lsn, 123456u);
  EXPECT_EQ(decoded->segment, 1);
}

TEST(WalFormat, TruncatedRecordIsCorruption) {
  WalRecord write;
  write.type = WalRecordType::kWrite;
  write.txn = 7;
  const std::string payload = EncodeWalRecord(write);
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    const auto decoded =
        DecodeWalRecord(std::string_view(payload).substr(0, cut));
    ASSERT_FALSE(decoded.ok()) << "cut=" << cut;
    EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
  }
  EXPECT_FALSE(DecodeWalRecord("\x09garbage").ok());  // unknown type
}

// ---------------------------------------------------------------------------
// SimWalStorage crash model.

TEST(WalStorage, SyncedBytesSurviveCrash) {
  SimWalStorage storage;
  Rng rng(7);
  ASSERT_TRUE(storage.Append("a.log", "synced-part").ok());
  ASSERT_TRUE(storage.Sync("a.log").ok());
  ASSERT_TRUE(storage.Append("a.log", "buffered-part").ok());
  EXPECT_EQ(storage.BufferedBytes(), 13u);
  storage.Crash(rng);
  const auto data = storage.Read("a.log");
  ASSERT_TRUE(data.ok());
  // The synced prefix survives; some prefix of the buffered tail may ride
  // along (that is the point of the model).
  ASSERT_GE(data->size(), 11u);
  EXPECT_EQ(data->substr(0, 11), "synced-part");
  EXPECT_EQ(data->substr(11), std::string("buffered-part").substr(
                                  0, data->size() - 11));
  EXPECT_EQ(storage.BufferedBytes(), 0u);  // survivors are now durable
}

TEST(WalStorage, CrashLossIsSeedDeterministic) {
  auto run = [](std::uint64_t seed) {
    SimWalStorage storage;
    for (int f = 0; f < 4; ++f) {
      const std::string name = "f" + std::to_string(f);
      (void)storage.Append(name, std::string(64, 'x'));
    }
    Rng rng(seed);
    storage.Crash(rng);
    std::string shape;
    for (int f = 0; f < 4; ++f) {
      shape += std::to_string(
                   storage.Read("f" + std::to_string(f))->size()) +
               ",";
    }
    return shape;
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6));  // virtually certain with 4 x 64 bytes at stake
}

TEST(WalStorage, FailNextSyncsInjectsIoError) {
  SimWalStorage storage;
  ASSERT_TRUE(storage.Append("a.log", "data").ok());
  storage.FailNextSyncs(1);
  const Status failed = storage.Sync("a.log");
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.code(), StatusCode::kIoError);
  EXPECT_TRUE(storage.Sync("a.log").ok());  // next sync succeeds again
}

// ---------------------------------------------------------------------------
// WalManager: LSNs, group commit, sticky errors.

TEST(WalManager, LsnsAreFrameEndsInOneLogAndSyncModesAck) {
  SimWalStorage storage;
  WalOptions options;
  options.group.mode = WalSyncMode::kPerCommit;
  auto wal = WalManager::Open(&storage, /*num_segments=*/2, options);
  ASSERT_TRUE(wal.ok());
  const auto t1 = (*wal)->LogWrite(0, /*txn=*/1, /*init_ts=*/10, 0, 42);
  const auto t2 = (*wal)->LogWrite(1, /*txn=*/1, /*init_ts=*/10, 0, 43);
  const auto t3 = (*wal)->LogCommit(/*txn=*/1, /*init_ts=*/10);
  ASSERT_TRUE(t1.ok() && t2.ok() && t3.ok());
  // Both segments' writes and the commit share one file; each call
  // returns the offset just past its frame.
  const std::uint64_t write_frame = kFrameHeaderBytes + 41;
  EXPECT_EQ(*t1, write_frame);
  EXPECT_EQ(*t2, 2 * write_frame);
  EXPECT_EQ(*t3, 2 * write_frame + kFrameHeaderBytes + 25);
  EXPECT_EQ((*wal)->EndLsn(), *t3);
  EXPECT_EQ(storage.Size(kWalLogName).value(), *t3);
  ASSERT_TRUE((*wal)->WaitDurable(*t3).ok());
  EXPECT_EQ(storage.BufferedBytes(), 0u);
  EXPECT_EQ((*wal)->metrics().fsyncs.load(), 1u);
}

TEST(WalManager, WriteForUnknownSegmentIsRefused) {
  SimWalStorage storage;
  auto wal = WalManager::Open(&storage, /*num_segments=*/2, WalOptions{});
  ASSERT_TRUE(wal.ok());
  EXPECT_EQ((*wal)->LogWrite(2, 1, 10, 0, 42).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*wal)->LogWrite(-1, 1, 10, 0, 42).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*wal)->EndLsn(), 0u);
}

TEST(WalManager, SyncFailureIsSticky) {
  SimWalStorage storage;
  WalOptions options;
  options.group.mode = WalSyncMode::kPerCommit;
  auto wal = WalManager::Open(&storage, 1, options);
  ASSERT_TRUE(wal.ok());
  const auto t1 = (*wal)->LogCommit(1, 10);
  ASSERT_TRUE(t1.ok());
  storage.FailNextSyncs(1);
  const Status failed = (*wal)->WaitDurable(*t1);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.code(), StatusCode::kIoError);
  // The WAL refuses all further durability claims: it cannot know what
  // reached the disk.
  const auto t2 = (*wal)->LogCommit(2, 11);
  ASSERT_TRUE(t2.ok());
  EXPECT_FALSE((*wal)->WaitDurable(*t2).ok());
}

TEST(WalManager, CanaryMutationSkipsTheWait) {
  SimWalStorage storage;
  WalOptions options;
  options.group.mode = WalSyncMode::kPerCommit;
  options.mutation_skip_commit_sync = true;
  auto wal = WalManager::Open(&storage, 1, options);
  ASSERT_TRUE(wal.ok());
  const auto t1 = (*wal)->LogCommit(1, 10);
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE((*wal)->WaitDurable(*t1).ok());
  // Nothing was synced: the "ack" is a lie, which the crash sweep's canary
  // test must catch end to end.
  EXPECT_GT(storage.BufferedBytes(), 0u);
  EXPECT_EQ((*wal)->metrics().fsyncs.load(), 0u);
}

// ---------------------------------------------------------------------------
// Recovery. Helpers build a database and run transactions through the WAL
// the way HddController does: write records under the same ordering the
// latch would give, commit records after, then WaitDurable on ack.

std::unique_ptr<Database> TinyDb(int segments, std::uint32_t granules) {
  return std::make_unique<Database>(segments, granules, /*initial=*/0);
}

struct LoggedTxn {
  TxnId txn;
  Timestamp init_ts;
  SegmentId segment;
  std::uint32_t granule;
  Value value;
};

// Appends write+commit for one single-segment transaction and installs
// the version in `db` (mirroring the controller's latch section).
Status RunTxn(WalManager* wal, Database* db, const LoggedTxn& t,
              bool ack) {
  HDD_RETURN_IF_ERROR(
      wal->LogWrite(t.segment, t.txn, t.init_ts, t.granule, t.value)
          .status());
  Version v;
  v.order_key = t.init_ts;
  v.wts = t.init_ts;
  v.creator = t.txn;
  v.value = t.value;
  v.committed = false;
  HDD_RETURN_IF_ERROR(db->segment(t.segment).granule(t.granule).Insert(v));
  HDD_ASSIGN_OR_RETURN(const std::uint64_t lsn,
                       wal->LogCommit(t.txn, t.init_ts));
  db->segment(t.segment).granule(t.granule).Find(t.init_ts)->committed =
      true;
  if (ack) return wal->WaitDurable(lsn);
  return Status::OK();
}

TEST(WalRecovery, EmptyStorageRecoversToInitialState) {
  SimWalStorage storage;
  auto db = TinyDb(2, 2);
  const auto report = RecoverDatabase(&storage, db.get());
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->durable_commits.empty());
  EXPECT_EQ(report->replayed_records, 0u);
  EXPECT_EQ(report->incomplete_commits, 0u);
  EXPECT_EQ(db->segment(0).granule(0).versions().size(), 1u);  // initial
}

TEST(WalRecovery, AckedCommitSurvivesUnackedMayNot) {
  SimWalStorage storage;
  WalOptions options;
  options.group.mode = WalSyncMode::kPerCommit;
  auto wal = WalManager::Open(&storage, 1, options);
  ASSERT_TRUE(wal.ok());
  auto db = TinyDb(1, 2);
  ASSERT_TRUE(RunTxn(wal->get(), db.get(),
                     {/*txn=*/1, /*init_ts=*/10, 0, 0, 111}, /*ack=*/true)
                  .ok());
  ASSERT_TRUE(RunTxn(wal->get(), db.get(),
                     {/*txn=*/2, /*init_ts=*/20, 0, 1, 222}, /*ack=*/false)
                  .ok());
  Rng rng(99);
  storage.Crash(rng);

  auto recovered = TinyDb(1, 2);
  const auto report = RecoverDatabase(&storage, recovered.get());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->durable_commits.count(1), 1u);  // acked: guaranteed
  const Version* v = recovered->segment(0).granule(0).Find(10);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->value, 111);
  EXPECT_TRUE(v->committed);
  EXPECT_GE(report->max_timestamp, 10u);
  // Txn 2 was never acked: it may or may not have survived, but if it did
  // not, no trace of it remains.
  if (report->durable_commits.count(2) == 0) {
    EXPECT_EQ(recovered->segment(0).granule(1).Find(20), nullptr);
  }
}

TEST(WalRecovery, TornCommitTailRollsBack) {
  SimWalStorage storage;
  WalOptions options;
  auto wal = WalManager::Open(&storage, 1, options);
  ASSERT_TRUE(wal.ok());
  auto db = TinyDb(1, 1);
  ASSERT_TRUE(RunTxn(wal->get(), db.get(), {1, 10, 0, 0, 111}, true).ok());
  ASSERT_TRUE(RunTxn(wal->get(), db.get(), {2, 20, 0, 0, 222}, false).ok());
  // Cut the log mid-way through txn 2's commit frame: a torn tail.
  const auto data = storage.Read(kWalLogName);
  ASSERT_TRUE(data.ok());
  ASSERT_TRUE(storage.Truncate(kWalLogName, data->size() - 3).ok());
  ASSERT_TRUE(storage.Sync(kWalLogName).ok());

  auto recovered = TinyDb(1, 1);
  const auto report = RecoverDatabase(&storage, recovered.get());
  ASSERT_TRUE(report.ok());
  EXPECT_GE(report->torn_streams, 1u);
  EXPECT_EQ(report->durable_commits.count(1), 1u);
  EXPECT_EQ(report->durable_commits.count(2), 0u);
  EXPECT_EQ(recovered->segment(0).granule(0).Find(20), nullptr);
  EXPECT_GE(report->discarded_uncommitted, 1u);  // txn 2's write replayed
  // The torn log was truncated and is reusable: recovery again is a no-op
  // on the same state (idempotence).
  auto again = TinyDb(1, 1);
  const auto report2 = RecoverDatabase(&storage, again.get());
  ASSERT_TRUE(report2.ok());
  EXPECT_EQ(report2->torn_streams, 0u);
  EXPECT_EQ(report2->durable_commits, report->durable_commits);
  // The torn commit frame is gone from the file.
  EXPECT_EQ(storage.Size(kWalLogName).value(),
            data->size() - (kFrameHeaderBytes + 25));
  ASSERT_NE(again->segment(0).granule(0).Find(10), nullptr);
}

// Passes everything through except the append numbered `drop_append`
// (0-based), which it reports written but discards: a storage that acks
// an append and loses it, while later appends and syncs succeed.
class DroppingStorage : public WalStorage {
 public:
  DroppingStorage(WalStorage* inner, int drop_append)
      : inner_(inner), drop_append_(drop_append) {}
  Result<std::string> Read(const std::string& name) override {
    return inner_->Read(name);
  }
  Result<std::uint64_t> Size(const std::string& name) override {
    return inner_->Size(name);
  }
  Status Append(const std::string& name, std::string_view data) override {
    if (appends_++ == drop_append_) return Status::OK();
    return inner_->Append(name, data);
  }
  Status Sync(const std::string& name) override { return inner_->Sync(name); }
  Status Truncate(const std::string& name, std::uint64_t size) override {
    return inner_->Truncate(name, size);
  }

 private:
  WalStorage* inner_;
  int drop_append_;
  int appends_ = 0;
};

TEST(WalRecovery, LostSyncedAppendCutsTheLogAndItStaysAppendable) {
  SimWalStorage storage;
  // Appends 0-1 are txn 1's write+commit, 2-3 txn 2's, and so on: drop
  // txn 3's write. Every commit is acked — the sync "succeeds".
  DroppingStorage dropping(&storage, /*drop_append=*/4);
  WalOptions options;
  options.group.mode = WalSyncMode::kPerCommit;
  auto wal = WalManager::Open(&dropping, 1, options);
  ASSERT_TRUE(wal.ok());
  auto db = TinyDb(1, 5);
  for (TxnId t = 1; t <= 5; ++t) {
    ASSERT_TRUE(RunTxn(wal->get(), db.get(),
                       {t, 10 * t, 0, static_cast<std::uint32_t>(t - 1),
                        static_cast<Value>(100 * t)},
                       /*ack=*/true)
                    .ok());
  }
  wal->reset();

  auto recovered = TinyDb(1, 5);
  const auto report = RecoverDatabase(&storage, recovered.get());
  ASSERT_TRUE(report.ok());
  // Txn 3's commit frame is the first whose LSN stamp disagrees with its
  // offset: the honoured log ends before it, taking txns 3-5 with it.
  EXPECT_EQ(report->durable_commits, (std::set<TxnId>{1, 2}));
  EXPECT_EQ(report->incomplete_commits, 3u);
  EXPECT_EQ(recovered->segment(0).granule(3).Find(40), nullptr);
  const std::uint64_t honoured =
      2 * (kFrameHeaderBytes + 41) + 2 * (kFrameHeaderBytes + 25);
  EXPECT_EQ(storage.Size(kWalLogName).value(), honoured);

  // The cut log takes new appends at its end, and they recover.
  auto reopened = WalManager::Open(&storage, 1, options);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->EndLsn(), honoured);
  ASSERT_TRUE(RunTxn(reopened->get(), recovered.get(), {6, 60, 0, 4, 600},
                     /*ack=*/true)
                  .ok());
  auto again = TinyDb(1, 5);
  const auto report2 = RecoverDatabase(&storage, again.get());
  ASSERT_TRUE(report2.ok());
  EXPECT_EQ(report2->durable_commits, (std::set<TxnId>{1, 2, 6}));
  EXPECT_EQ(report2->incomplete_commits, 0u);
  ASSERT_NE(again->segment(0).granule(4).Find(60), nullptr);
}

TEST(WalRecovery, CheckpointPastALostAppendFailsLoudly) {
  SimWalStorage storage;
  // Drop txn 3's write as above, then checkpoint: the WAL's end LSN (and
  // so the checkpoint's) counts the lost frame, which lies past the end
  // of the log that recovery can honour.
  DroppingStorage dropping(&storage, /*drop_append=*/4);
  WalOptions options;
  options.group.mode = WalSyncMode::kPerCommit;
  auto wal = WalManager::Open(&dropping, 1, options);
  ASSERT_TRUE(wal.ok());
  auto db = TinyDb(1, 5);
  for (TxnId t = 1; t <= 5; ++t) {
    ASSERT_TRUE(RunTxn(wal->get(), db.get(),
                       {t, 10 * t, 0, static_cast<std::uint32_t>(t - 1),
                        static_cast<Value>(100 * t)},
                       /*ack=*/true)
                    .ok());
  }
  SegmentCheckpoint ckpt;
  ckpt.chains = EncodeSegmentChains(db->segment(0));
  ckpt.log_end_lsn = (*wal)->EndLsn();
  ASSERT_TRUE(AppendSegmentCheckpoint(&storage, 0, ckpt).ok());
  wal->reset();

  // Restoring the snapshot would keep effects the cut log lost, and a
  // reopened log would append below the checkpoint's LSN, where a later
  // recovery would skip new writes as covered.
  const std::uint64_t size = storage.Size(kWalLogName).value();
  auto recovered = TinyDb(1, 5);
  const auto report = RecoverDatabase(&storage, recovered.get());
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kCorruption);
  // Nothing is cut: the evidence stays for whoever repairs the log.
  EXPECT_EQ(storage.Size(kWalLogName).value(), size);
}

// Chains of two databases compared version by version.
void ExpectSameChains(const Database& want, const Database& got) {
  ASSERT_EQ(want.num_segments(), got.num_segments());
  for (SegmentId s = 0; s < want.num_segments(); ++s) {
    ASSERT_EQ(want.segment(s).size(), got.segment(s).size());
    for (std::uint32_t g = 0; g < want.segment(s).size(); ++g) {
      const auto& a = want.segment(s).granule(g).versions();
      const auto& b = got.segment(s).granule(g).versions();
      ASSERT_EQ(a.size(), b.size()) << "segment " << s << " granule " << g;
      for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].order_key, b[i].order_key);
        EXPECT_EQ(a[i].value, b[i].value);
        EXPECT_EQ(a[i].creator, b[i].creator);
        EXPECT_EQ(a[i].committed, b[i].committed);
      }
    }
  }
}

TEST(WalRecovery, InterleavedSegmentsWithACheckpointEachReplayExactly) {
  SimWalStorage storage;
  WalOptions options;
  options.group.mode = WalSyncMode::kPerCommit;
  auto wal = WalManager::Open(&storage, 2, options);
  ASSERT_TRUE(wal.ok());
  auto db = TinyDb(2, 3);
  auto checkpoint = [&](SegmentId s) {
    SegmentCheckpoint ckpt;
    ckpt.chains = EncodeSegmentChains(db->segment(s));
    ckpt.log_end_lsn = (*wal)->EndLsn();
    ASSERT_TRUE(AppendSegmentCheckpoint(&storage, s, ckpt).ok());
  };
  // Transactions alternate segments, so each segment's records are
  // interleaved with the other's in the one log. Segment 0 checkpoints
  // early, segment 1 late; both keep writing after their checkpoint.
  TxnId t = 1;
  auto run = [&](int count) {
    for (int i = 0; i < count; ++i, ++t) {
      ASSERT_TRUE(RunTxn(wal->get(), db.get(),
                         {t, 10 * t, static_cast<SegmentId>(t % 2),
                          static_cast<std::uint32_t>(t % 3),
                          static_cast<Value>(t)},
                         /*ack=*/true)
                      .ok());
    }
  };
  run(4);
  checkpoint(0);
  run(6);
  checkpoint(1);
  run(5);

  auto recovered = TinyDb(2, 3);
  const auto report = RecoverDatabase(&storage, recovered.get());
  ASSERT_TRUE(report.ok());
  ExpectSameChains(*db, *recovered);
  EXPECT_EQ(report->durable_commits.size(), 15u);
  // Writes covered by their segment's checkpoint are not replayed:
  // segment 0's two of txns 1-4 and segment 1's five of txns 1-10. Every
  // commit record applies.
  EXPECT_EQ(report->replayed_records, 15u + 15u - 2u - 5u);
}

TEST(WalRecovery, AbortedVersionsAreAbsentWithoutAPerGranuleScan) {
  // A 65536-granule segment, as in the benchmark's durable_write: an
  // abort record used to cost a scan of every granule on replay, so a
  // few thousand of them took seconds. An abort record now removes just
  // the versions its transaction's write records name.
  constexpr std::uint32_t kGranules = 1u << 16;
  constexpr TxnId kAborted = 2000;
  SimWalStorage storage;
  auto wal = WalManager::Open(&storage, 1, WalOptions{});
  ASSERT_TRUE(wal.ok());
  for (TxnId t = 1; t <= kAborted; ++t) {
    const std::uint32_t granule = static_cast<std::uint32_t>(t * 31) % kGranules;
    ASSERT_TRUE((*wal)->LogWrite(0, t, 10 * t, granule, 1).ok());
    ASSERT_TRUE((*wal)->LogAbort(t, 10 * t).ok());
  }
  ASSERT_TRUE((*wal)->LogWrite(0, kAborted + 1, 10 * (kAborted + 1), 7, 77).ok());
  ASSERT_TRUE((*wal)->LogCommit(kAborted + 1, 10 * (kAborted + 1)).ok());
  ASSERT_TRUE((*wal)->AwaitReadStable().ok());

  auto recovered = TinyDb(1, kGranules);
  const auto report = RecoverDatabase(&storage, recovered.get());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->discarded_uncommitted, 0u);  // the aborts removed them
  for (TxnId t = 1; t <= kAborted; ++t) {
    const std::uint32_t granule = static_cast<std::uint32_t>(t * 31) % kGranules;
    EXPECT_EQ(recovered->segment(0).granule(granule).Find(10 * t), nullptr);
  }
  const Version* kept = recovered->segment(0).granule(7).LatestCommitted();
  ASSERT_NE(kept, nullptr);
  EXPECT_EQ(kept->value, 77);
}

TEST(WalRecovery, ReopenWithDefaultOptionsContinuesAfterTheRecoveredEnd) {
  SimWalStorage storage;
  auto db = TinyDb(2, 2);
  {
    auto wal = WalManager::Open(&storage, 2, WalOptions{});
    ASSERT_TRUE(wal.ok());
    for (TxnId t = 1; t <= 4; ++t) {
      ASSERT_TRUE(RunTxn(wal->get(), db.get(),
                         {t, 10 * t, static_cast<SegmentId>(t % 2), 0,
                          static_cast<Value>(t)},
                         /*ack=*/t <= 2)
                      .ok());
    }
  }
  Rng rng(5);
  storage.Crash(rng);
  auto recovered = TinyDb(2, 2);
  const auto report = RecoverDatabase(&storage, recovered.get());
  ASSERT_TRUE(report.ok());
  const std::uint64_t end = storage.Size(kWalLogName).value();

  // No option carries the position over: the reopened WAL starts at the
  // recovered file's end, and its LSNs keep rising from there.
  auto wal = WalManager::Open(&storage, 2, WalOptions{});
  ASSERT_TRUE(wal.ok());
  EXPECT_EQ((*wal)->EndLsn(), end);
  ASSERT_TRUE((*wal)->LogWrite(1, 9, 90, 1, 99).ok());
  const auto lsn = (*wal)->LogCommit(9, 90);
  ASSERT_TRUE(lsn.ok());
  EXPECT_GT(*lsn, end);
  ASSERT_TRUE((*wal)->WaitDurable(*lsn).ok());

  auto again = TinyDb(2, 2);
  const auto report2 = RecoverDatabase(&storage, again.get());
  ASSERT_TRUE(report2.ok());
  EXPECT_EQ(report2->incomplete_commits, 0u);
  EXPECT_EQ(report2->durable_commits.count(9), 1u);
  for (const TxnId t : report->durable_commits) {
    EXPECT_EQ(report2->durable_commits.count(t), 1u);
  }
  ASSERT_NE(again->segment(1).granule(1).Find(90), nullptr);
}

// Transaction ids restart with each controller, so one log can hold two
// transactions with the same id, one per run. Each verdict settles only
// the writes that precede it.
TEST(WalRecovery, ReusedTxnIdsDoNotResurrectEarlierAbortedOrUnfinishedWrites) {
  SimWalStorage storage;
  {
    // Txn 1 writes and aborts; txn 2's write reaches the disk, and the
    // process dies before its verdict.
    auto wal = WalManager::Open(&storage, 1, WalOptions{});
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->LogWrite(0, /*txn=*/1, /*init_ts=*/10, 0, 111).ok());
    ASSERT_TRUE((*wal)->LogAbort(/*txn=*/1, /*init_ts=*/10).ok());
    ASSERT_TRUE((*wal)->LogWrite(0, /*txn=*/2, /*init_ts=*/20, 1, 222).ok());
    ASSERT_TRUE((*wal)->AwaitReadStable().ok());
  }
  auto first = TinyDb(1, 4);
  ASSERT_TRUE(RecoverDatabase(&storage, first.get()).ok());
  EXPECT_EQ(first->segment(0).granule(0).Find(10), nullptr);
  EXPECT_EQ(first->segment(0).granule(1).Find(20), nullptr);

  // The next run starts its ids at 1 again and commits a new txn 1 and 2.
  {
    auto wal = WalManager::Open(&storage, 1, WalOptions{});
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(RunTxn(wal->get(), first.get(), {1, 30, 0, 2, 333},
                       /*ack=*/true)
                    .ok());
    ASSERT_TRUE(RunTxn(wal->get(), first.get(), {2, 40, 0, 3, 444},
                       /*ack=*/true)
                    .ok());
  }
  auto second = TinyDb(1, 4);
  const auto report = RecoverDatabase(&storage, second.get());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(second->segment(0).granule(0).Find(10), nullptr);
  EXPECT_EQ(second->segment(0).granule(1).Find(20), nullptr);
  for (const auto& [granule, ts, value] :
       {std::tuple<std::uint32_t, Timestamp, Value>{2, 30, 333},
        std::tuple<std::uint32_t, Timestamp, Value>{3, 40, 444}}) {
    const Version* kept = second->segment(0).granule(granule).Find(ts);
    ASSERT_NE(kept, nullptr);
    EXPECT_TRUE(kept->committed);
    EXPECT_EQ(kept->value, value);
  }
}

TEST(WalRecovery, ReusedTxnIdDoesNotCommitALaterUnfinishedWrite) {
  SimWalStorage storage;
  auto db = TinyDb(1, 2);
  {
    auto wal = WalManager::Open(&storage, 1, WalOptions{});
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(
        RunTxn(wal->get(), db.get(), {1, 10, 0, 0, 111}, /*ack=*/true).ok());
  }
  auto first = TinyDb(1, 2);
  ASSERT_TRUE(RecoverDatabase(&storage, first.get()).ok());

  // The next run's txn 1 writes, its record reaches the disk, and the
  // process dies before the commit record.
  {
    auto wal = WalManager::Open(&storage, 1, WalOptions{});
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->LogWrite(0, /*txn=*/1, /*init_ts=*/30, 1, 333).ok());
    ASSERT_TRUE((*wal)->AwaitReadStable().ok());
  }
  auto second = TinyDb(1, 2);
  const auto report = RecoverDatabase(&storage, second.get());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(second->segment(0).granule(1).Find(30), nullptr);
  EXPECT_EQ(report->discarded_uncommitted, 1u);
  const Version* kept = second->segment(0).granule(0).Find(10);
  ASSERT_NE(kept, nullptr);
  EXPECT_TRUE(kept->committed);
}

TEST(WalRecovery, CheckpointCoversPrefixAndSuffixReplays) {
  SimWalStorage storage;
  WalOptions options;
  options.group.mode = WalSyncMode::kPerCommit;
  auto wal = WalManager::Open(&storage, 1, options);
  ASSERT_TRUE(wal.ok());
  auto db = TinyDb(1, 2);
  ASSERT_TRUE(RunTxn(wal->get(), db.get(), {1, 10, 0, 0, 111}, true).ok());

  // Checkpoint the segment the way CheckpointWal does: chains + LSN in
  // one capture, logs already hardened (kPerCommit synced everything).
  SegmentCheckpoint ckpt;
  ckpt.chains = EncodeSegmentChains(db->segment(0));
  ckpt.log_end_lsn = (*wal)->EndLsn();
  ASSERT_TRUE(AppendSegmentCheckpoint(&storage, 0, ckpt).ok());

  // More work after the checkpoint, then a second txn acked.
  ASSERT_TRUE(RunTxn(wal->get(), db.get(), {2, 20, 0, 1, 222}, true).ok());

  auto recovered = TinyDb(1, 2);
  const auto report = RecoverDatabase(&storage, recovered.get());
  ASSERT_TRUE(report.ok());
  // Txn 1's version comes from the snapshot (its write is at or below the
  // ckpt LSN and is NOT replayed); txn 2's write replays from the suffix.
  // Commit records are idempotent and always apply.
  EXPECT_EQ(report->durable_commits.count(1), 1u);
  EXPECT_EQ(report->durable_commits.count(2), 1u);
  EXPECT_EQ(report->replayed_records, 3u);  // both commits + txn 2's write
  ASSERT_NE(recovered->segment(0).granule(0).Find(10), nullptr);
  ASSERT_NE(recovered->segment(0).granule(1).Find(20), nullptr);

  // A torn checkpoint tail falls back to the previous intact snapshot.
  const auto ckpt_data = storage.Read(SegmentCheckpointName(0));
  ASSERT_TRUE(ckpt_data.ok());
  ASSERT_TRUE(storage.Append(SegmentCheckpointName(0), "torn!").ok());
  ASSERT_TRUE(storage.Sync(SegmentCheckpointName(0)).ok());
  auto recovered2 = TinyDb(1, 2);
  const auto report2 = RecoverDatabase(&storage, recovered2.get());
  ASSERT_TRUE(report2.ok());
  EXPECT_GE(report2->torn_streams, 1u);
  EXPECT_EQ(report2->durable_commits, report->durable_commits);
}

TEST(WalRecovery, DoubleRecoveryIsIdempotent) {
  SimWalStorage storage;
  auto wal = WalManager::Open(&storage, 2, WalOptions{});
  ASSERT_TRUE(wal.ok());
  auto db = TinyDb(2, 2);
  for (TxnId t = 1; t <= 6; ++t) {
    ASSERT_TRUE(RunTxn(wal->get(), db.get(),
                       {t, 10 * t, static_cast<SegmentId>(t % 2),
                        static_cast<std::uint32_t>(t % 2), 100 + (int)t},
                       /*ack=*/t % 3 == 0)
                    .ok());
  }
  Rng rng(1234);
  storage.Crash(rng);

  auto first = TinyDb(2, 2);
  const auto r1 = RecoverDatabase(&storage, first.get());
  ASSERT_TRUE(r1.ok());
  // Run recovery AGAIN over the same storage and the already-recovered
  // database object: every count except torn/truncation work must match,
  // and the chains must be unchanged.
  const std::uint64_t end = storage.Size(kWalLogName).value();
  const auto r2 = RecoverDatabase(&storage, first.get());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->durable_commits, r1->durable_commits);
  EXPECT_EQ(storage.Size(kWalLogName).value(), end);
  EXPECT_EQ(r2->torn_streams, 0u);
  // An uncommitted write whose record sits in the honoured log is
  // retained in the log, replayed, and re-discarded on every recovery —
  // the same count both times, never growing state.
  EXPECT_EQ(r2->discarded_uncommitted, r1->discarded_uncommitted);
  // And a fresh database recovers to the same chains.
  auto second = TinyDb(2, 2);
  ASSERT_TRUE(RecoverDatabase(&storage, second.get()).ok());
  for (int s = 0; s < 2; ++s) {
    for (std::uint32_t g = 0; g < 2; ++g) {
      const auto& a = first->segment(s).granule(g).versions();
      const auto& b = second->segment(s).granule(g).versions();
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].order_key, b[i].order_key);
        EXPECT_EQ(a[i].value, b[i].value);
        EXPECT_EQ(a[i].creator, b[i].creator);
        EXPECT_EQ(a[i].committed, b[i].committed);
      }
    }
  }
}

TEST(WalRecovery, AbortRecordRemovesTheVersion) {
  SimWalStorage storage;
  auto wal = WalManager::Open(&storage, 1, WalOptions{});
  ASSERT_TRUE(wal.ok());
  auto db = TinyDb(1, 1);
  ASSERT_TRUE(
      (*wal)->LogWrite(0, /*txn=*/1, /*init_ts=*/10, 0, 111).ok());
  ASSERT_TRUE((*wal)->LogAbort(/*txn=*/1, /*init_ts=*/10).ok());
  ASSERT_TRUE((*wal)->LogCommit(/*txn=*/2, /*init_ts=*/20).ok());
  ASSERT_TRUE((*wal)->AwaitReadStable().ok());

  auto recovered = TinyDb(1, 1);
  const auto report = RecoverDatabase(&storage, recovered.get());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(recovered->segment(0).granule(0).Find(10), nullptr);
  EXPECT_EQ(recovered->segment(0).granule(0).versions().size(), 1u);
}

TEST(WalRecovery, CorruptIntactFrameFailsLoudly) {
  SimWalStorage storage;
  auto wal = WalManager::Open(&storage, 1, WalOptions{});
  ASSERT_TRUE(wal.ok());
  auto db = TinyDb(1, 1);
  ASSERT_TRUE(RunTxn(wal->get(), db.get(), {1, 10, 0, 0, 111}, false).ok());
  ASSERT_TRUE((*wal)->AwaitReadStable().ok());
  auto data = storage.Read(kWalLogName);
  ASSERT_TRUE(data.ok());
  std::string flipped = *data;
  flipped[kFrameHeaderBytes + 5] ^= 0x01;  // inside the first payload
  ASSERT_TRUE(storage.Truncate(kWalLogName, 0).ok());
  ASSERT_TRUE(storage.Append(kWalLogName, flipped).ok());
  ASSERT_TRUE(storage.Sync(kWalLogName).ok());

  auto recovered = TinyDb(1, 1);
  const auto report = RecoverDatabase(&storage, recovered.get());
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kCorruption);
}

}  // namespace
}  // namespace hdd
