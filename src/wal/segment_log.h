#ifndef HDD_WAL_SEGMENT_LOG_H_
#define HDD_WAL_SEGMENT_LOG_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "wal/log_format.h"
#include "wal/wal_storage.h"

namespace hdd {

/// The redo log of ONE segment. HDD makes this the natural logging unit:
/// an update transaction writes exactly one root segment (paper §3), so
/// its write and commit records are segment-local and segments recover
/// independently. Records are CRC32-framed (log_format.h); append order
/// equals version-install order because the controller appends under the
/// same shard latch that installs the version.
///
/// LSNs are plain byte offsets into the log file.
class SegmentLog {
 public:
  /// Opens the log named `name` inside `storage`, continuing at its
  /// current size (0 for a fresh log; recovery truncates torn tails
  /// before reattaching, so the opening offset is a frame boundary).
  static Result<SegmentLog> Open(WalStorage* storage, std::string name);

  SegmentLog(SegmentLog&&) = default;
  SegmentLog& operator=(SegmentLog&&) = default;

  /// Appends one framed record (buffered, not durable), drawing its
  /// global ticket from `ticket_counter` inside the append critical
  /// section — file order therefore equals ticket order within this log,
  /// which is what lets recovery truncate everything past the ticket
  /// frontier as one suffix cut (see WalRecord::ticket). Returns the
  /// size of the appended frame in bytes (header plus encoded record) and
  /// stores the assigned ticket in `*ticket_out`.
  Result<std::uint64_t> Append(WalRecord record,
                               std::atomic<std::uint64_t>* ticket_counter,
                               std::uint64_t* ticket_out);

  /// Makes every appended byte durable.
  Status Sync();

  const std::string& name() const { return *name_; }
  /// End of everything appended so far.
  std::uint64_t end_lsn() const;
  /// End of everything known durable.
  std::uint64_t durable_lsn() const;
  /// Bytes appended but not yet synced.
  std::uint64_t unsynced_bytes() const;

 private:
  SegmentLog(WalStorage* storage, std::string name, std::uint64_t end);

  WalStorage* storage_;
  // unique_ptr members keep the class movable despite the mutex.
  std::unique_ptr<std::string> name_;
  std::unique_ptr<std::mutex> mu_;
  std::uint64_t end_lsn_ = 0;
  std::uint64_t durable_lsn_ = 0;
};

}  // namespace hdd

#endif  // HDD_WAL_SEGMENT_LOG_H_
