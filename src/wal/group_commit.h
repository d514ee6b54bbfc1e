#ifndef HDD_WAL_GROUP_COMMIT_H_
#define HDD_WAL_GROUP_COMMIT_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>

#include "common/metrics.h"
#include "common/status.h"

namespace hdd {

/// How commits reach the disk.
enum class WalSyncMode {
  /// Never fsync (bench baseline / tests): commits ack immediately and a
  /// crash may lose them. No durability claim.
  kNone,
  /// Group commit: the first waiting commit becomes the LEADER, briefly
  /// waits for followers to pile in (flush interval / byte threshold),
  /// syncs the log once, and publishes the covered LSN; the followers ride
  /// its single sync.
  kGroupCommit,
  /// One fsync per commit (the classical, slow, baseline).
  kPerCommit,
};

/// Outcome of one sync batch: every log byte below `stable_lsn` is
/// durable; `commits_covered` feeds the batch-size histogram.
struct SyncBatch {
  std::uint64_t stable_lsn = 0;
  std::uint64_t commits_covered = 0;
};

/// What waits in the log, unsynced, when a leader decides whether to pause.
struct PendingWork {
  std::uint64_t bytes = 0;
  std::uint64_t commits = 0;
};

/// The group-commit gate. Deliberately NOT a daemon thread: a background
/// flusher would be invisible to the deterministic scheduler, so the
/// leader role instead rotates among the committing transactions
/// themselves (leader/follower group commit), and the flush-interval wait
/// is a SimSleep — one more deterministic reschedule under simulation.
class GroupCommit {
 public:
  struct Params {
    WalSyncMode mode = WalSyncMode::kGroupCommit;
    /// Leader skips its pile-in pause once this many unsynced bytes wait,
    /// and when its own commit is the only one pending (nobody is piling
    /// in, so the pause would only delay it). Only commit records count:
    /// read-only waiters (read bounds, prepares) then sync in small
    /// batches, which measured faster than pausing for them
    /// (EXPERIMENTS.md, "One log per node").
    std::uint64_t flush_bytes = 64 * 1024;
    std::chrono::microseconds flush_interval{100};
  };

  GroupCommit(Params params, WalMetrics* metrics)
      : params_(params), metrics_(metrics) {}

  GroupCommit(const GroupCommit&) = delete;
  GroupCommit& operator=(const GroupCommit&) = delete;

  /// Blocks until every log byte below `lsn` is durable. `sync_all`
  /// captures the log's end LSN and syncs the log (called with no
  /// GroupCommit lock held); `pending` reports what waits unsynced, for
  /// the leader's pause decision. A storage failure is sticky: the WAL
  /// refuses further durability claims rather than guess what made it to
  /// disk.
  Status AwaitDurable(std::uint64_t lsn,
                      const std::function<Result<SyncBatch>()>& sync_all,
                      const std::function<PendingWork()>& pending);

  /// Highest LSN known durable.
  std::uint64_t stable_lsn() const;

 private:
  const Params params_;
  WalMetrics* metrics_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::uint64_t stable_ = 0;
  bool leader_active_ = false;
  Status error_ = Status::OK();  // sticky first storage failure

  /// Serializes kPerCommit syncs.
  std::mutex per_commit_mu_;
};

}  // namespace hdd

#endif  // HDD_WAL_GROUP_COMMIT_H_
