#ifndef HDD_WAL_WAL_MANAGER_H_
#define HDD_WAL_WAL_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "common/metrics.h"
#include "common/status.h"
#include "storage/version.h"
#include "wal/group_commit.h"
#include "wal/log_format.h"
#include "wal/wal_storage.h"

namespace hdd {

/// File names inside a WalStorage namespace: the node's one redo log plus
/// the checkpoint streams.
inline constexpr const char kWalLogName[] = "wal.log";
std::string SegmentCheckpointName(SegmentId segment);
inline constexpr const char kControlCheckpointName[] = "ctrl.ckpt";

struct WalOptions {
  GroupCommit::Params group;

  /// TEST-ONLY mutation switch, the durability canary of the sim harness:
  /// commit records are appended but NEVER awaited (no fsync before the
  /// ack), so a crash can lose acknowledged commits. The crash-recovery
  /// sweep must catch this with a replayable seed — a harness that cannot
  /// detect the mutation is broken.
  bool mutation_skip_commit_sync = false;
};

/// The durability facade the controller talks to: ONE append-only redo
/// log per WalStorage namespace (kWalLogName) behind a group-commit gate.
/// Writes carry their segment; LSNs are byte offsets into the log, and
/// each record is stamped with its own (WalRecord::lsn). A reopened WAL
/// continues at the file's size — recovery truncated it to the honoured
/// prefix first.
///
/// ## Why one file is enough
///
/// A sync batch captures the log's end LSN under the log mutex, then runs
/// one Sync. Every record below the capture has finished its append (the
/// append holds the same mutex), and the crash model keeps a prefix of
/// the file, so acking LSN x makes every earlier record durable. Acking
/// commit T therefore covers every record T causally depends on: any
/// version T read was marked committed, under the shard latch that also
/// appended its commit record, before T's read — hence before T's own
/// commit record. The class partition decides which latch orders a
/// record, not which file holds it.
///
/// ## Ordering
///
/// Callers append write/commit/abort records under the SAME shard latch
/// that installs/commits/removes the version, so each segment's records
/// appear in the log in the in-memory effect order, and "record durable"
/// implies "effect happened". Replay in log order therefore reconstructs
/// the chains exactly (recovery.h).
class WalManager {
 public:
  /// `num_segments` bounds the segment tags LogWrite accepts.
  static Result<std::unique_ptr<WalManager>> Open(WalStorage* storage,
                                                  int num_segments,
                                                  WalOptions options = {});

  WalManager(const WalManager&) = delete;
  WalManager& operator=(const WalManager&) = delete;

  /// Append hooks — call under the shard latch that serializes the
  /// effect. Each returns the LSN just past its record: the position
  /// WaitDurable must reach for the record to be durable.
  Result<std::uint64_t> LogWrite(SegmentId segment, TxnId txn,
                                 Timestamp init_ts, std::uint32_t granule,
                                 Value value);
  Result<std::uint64_t> LogCommit(TxnId txn, Timestamp init_ts);
  Result<std::uint64_t> LogAbort(TxnId txn, Timestamp init_ts);

  /// 2PC participant marker (see WalRecordType::kPrepare): append after
  /// every shipped write of `txn` is logged, then await the returned LSN
  /// before acking the prepare.
  Result<std::uint64_t> LogPrepare(TxnId txn, Timestamp init_ts);

  /// Clock marker for read-only commits (see WalRecordType::kReadBound):
  /// records `now` so recovery never rewinds the clock below an acked
  /// reader's bound. Call before AwaitReadStable.
  Result<std::uint64_t> LogReadBound(Timestamp now);

  /// Commit-wait: blocks (leader/follower group commit) until every log
  /// byte below `lsn` is durable. Call with NO latches held. Returns
  /// immediately under WalSyncMode::kNone and under the canary mutation.
  Status WaitDurable(std::uint64_t lsn);

  /// Read barrier for read-only transactions: waits until everything
  /// appended so far is durable. A read-only transaction acked after this
  /// barrier can only have observed committed versions whose commit
  /// records are on disk — results handed to the outside world never
  /// evaporate in a crash.
  Status AwaitReadStable();

  /// End of everything appended so far; call under a segment's shard
  /// latch to capture a checkpoint position consistent with its chains.
  std::uint64_t EndLsn() const;

  int num_segments() const { return num_segments_; }
  WalStorage& storage() { return *storage_; }
  const WalOptions& options() const { return options_; }
  WalMetrics& metrics() { return metrics_; }
  const WalMetrics& metrics() const { return metrics_; }

 private:
  WalManager(WalStorage* storage, int num_segments, WalOptions options,
             std::uint64_t end_lsn);

  Result<std::uint64_t> AppendRecord(const WalRecord& record);
  Result<SyncBatch> SyncAll();
  PendingWork Pending() const;

  WalStorage* const storage_;
  const int num_segments_;
  const WalOptions options_;
  WalMetrics metrics_;
  mutable std::mutex mu_;
  std::uint64_t end_lsn_;      // guarded by mu_
  std::uint64_t durable_lsn_;  // guarded by mu_
  std::atomic<std::uint64_t> pending_commits_{0};
  GroupCommit gate_;
};

}  // namespace hdd

#endif  // HDD_WAL_WAL_MANAGER_H_
