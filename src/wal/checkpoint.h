#ifndef HDD_WAL_CHECKPOINT_H_
#define HDD_WAL_CHECKPOINT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/status.h"
#include "storage/database.h"
#include "wal/wal_storage.h"

namespace hdd {

/// Fuzzy checkpointing. A checkpoint of segment S is the pair
///
///   (snapshot of S's version chains, the redo log's end LSN)
///
/// captured in ONE critical section under S's shard latch — so the
/// snapshot is exactly the state S's writes up to that LSN produce, and
/// recovery restores the snapshot then replays only S's later writes.
/// No global quiesce: each segment checkpoints independently while
/// transactions keep running in the others ("fuzzy" across segments,
/// sharp within one).
///
/// Checkpoints are appended as frames to an append-only per-segment
/// stream (SegmentCheckpointName); the LAST intact frame wins, so a crash
/// mid-checkpoint just falls back to the previous one. Control state
/// (walls, activity history, GC horizon — encoded by the controller) goes
/// to its own stream the same way.

/// One segment checkpoint: the chains blob plus the log position it covers.
struct SegmentCheckpoint {
  std::uint64_t log_end_lsn = 0;
  std::string chains;
};

/// Serializes every version chain of `segment`, committed and uncommitted
/// alike (replay of a later commit/abort record resolves the in-doubt
/// ones). Call under the shard latch that serializes installs.
std::string EncodeSegmentChains(const Segment& segment);

/// Restores chains encoded by EncodeSegmentChains into `segment`,
/// allocating granules as needed (the snapshot may cover granules
/// allocated after the database was constructed).
Status DecodeSegmentChainsInto(std::string_view blob, Segment* segment);

/// Appends `ckpt` to segment `s`'s checkpoint stream and syncs it.
Status AppendSegmentCheckpoint(WalStorage* storage, SegmentId s,
                               const SegmentCheckpoint& ckpt);

/// Loads the newest intact checkpoint of segment `s`; nullopt when the
/// stream is empty (never checkpointed). A torn tail falls back to the
/// previous intact frame; a corrupt intact frame fails loudly.
Result<std::optional<SegmentCheckpoint>> LoadSegmentCheckpoint(
    WalStorage* storage, SegmentId s);

/// Same pair of operations for the controller's opaque control-state blob.
Status AppendControlCheckpoint(WalStorage* storage,
                               std::string_view control_state);
Result<std::optional<std::string>> LoadControlCheckpoint(WalStorage* storage);

}  // namespace hdd

#endif  // HDD_WAL_CHECKPOINT_H_
