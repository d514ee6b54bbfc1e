#ifndef HDD_WAL_RECOVERY_H_
#define HDD_WAL_RECOVERY_H_

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "storage/database.h"
#include "wal/wal_storage.h"

namespace hdd {

/// What crash recovery reconstructed and what the restarting controller
/// must do with it.
struct RecoveryReport {
  /// Transactions whose commit records survived in the honoured log or
  /// whose committed versions sit in a durable snapshot — exactly the set
  /// whose effects the recovered database contains.
  /// Every commit ACKED before the crash is in here (that is the
  /// durability contract the sim sweep checks); unacked commits may or
  /// may not be, either answer is consistent.
  std::set<TxnId> durable_commits;

  /// Redo records applied: every honoured record except the writes a
  /// checkpoint of their segment already covers.
  std::uint64_t replayed_records = 0;
  /// Versions dropped because their transaction never durably committed.
  std::uint64_t discarded_uncommitted = 0;
  /// Commit records discarded because they sat past the honoured end of
  /// the log — behind a frame whose LSN stamp shows an earlier append was
  /// lost, so they may causally depend on the loss and cannot have been
  /// acked.
  std::uint64_t incomplete_commits = 0;
  /// Streams (the log and checkpoint streams) whose torn tails were
  /// truncated.
  std::uint64_t torn_streams = 0;

  /// Largest timestamp seen in any record, version, or read-bound marker.
  /// The restarting clock MUST advance past it (LogicalClock::AdvanceTo)
  /// or order keys would collide and acked readers' bounds would be
  /// undercut.
  Timestamp max_timestamp = kTimestampMin;

  /// Newest durable control-state blob (opaque to the WAL; the controller
  /// encodes walls, activity history and the GC horizon). Empty when no
  /// control checkpoint was ever taken.
  std::string control_state;

  /// Two-phase-commit residue (src/dist/): transactions whose kPrepare
  /// marker survived here but whose commit/abort verdict did not — the
  /// decision lives in the COORDINATOR's log (the transaction's home
  /// node). Their writes are NOT in the recovered database; they are kept
  /// aside in `prepared_writes` so the distributed restart can re-install
  /// them once the coordinator's durable_commits says committed, or drop
  /// them for good otherwise.
  std::set<TxnId> prepared;
  struct PreparedWrite {
    TxnId txn = kInvalidTxn;
    SegmentId segment = 0;
    std::uint32_t granule = 0;
    Timestamp init_ts = kTimestampMin;
    Value value = 0;
  };
  std::vector<PreparedWrite> prepared_writes;
};

/// Rebuilds `db` (freshly constructed, same shape as before the crash)
/// from the WAL in `storage`:
///
///   1. per segment: restore the newest intact checkpoint and note the
///      log LSN it covers;
///   2. scan the one redo log (kWalLogName) from the start, truncating a
///      torn tail (crash mid-append) so future appends start at a frame
///      boundary. The honoured log ends at the first frame whose stamped
///      LSN differs from the offset it sits at: the storage acknowledged
///      an earlier append and lost it, and everything from there on may
///      depend on the loss, so it is truncated (committed-prefix
///      semantics). A reopened WAL continues at the truncated size;
///   3. apply the honoured records in log order: a write replays unless
///      its frame ends at or before its segment's checkpoint LSN (log
///      order equals effect order, so this installs exactly the pre-crash
///      chain); commit, abort, prepare and read-bound records are
///      idempotent and always apply — a commit marks, and an abort
///      removes, the versions named by that transaction's earlier write
///      records (matched on (txn, init_ts): transaction ids restart with
///      each controller, timestamps do not);
///   4. discard every version still uncommitted (no honoured verdict),
///      keeping in-doubt 2PC writes aside in `prepared_writes`.
///
/// A checkpoint whose LSN lies past the honoured end reflects records the
/// storage lost; recovery fails with kCorruption rather than restore it.
///
/// Torn tails are expected and silent; an intact frame with a CRC
/// mismatch is kCorruption and fails recovery loudly. Running recovery
/// twice (even over the same Database object) is idempotent.
Result<RecoveryReport> RecoverDatabase(WalStorage* storage, Database* db,
                                       WalMetrics* metrics = nullptr);

}  // namespace hdd

#endif  // HDD_WAL_RECOVERY_H_
