#include "wal/wal_manager.h"

#include <algorithm>

#include "obs/trace.h"

namespace hdd {

std::string SegmentCheckpointName(SegmentId segment) {
  return "seg-" + std::to_string(segment) + ".ckpt";
}

WalManager::WalManager(WalStorage* storage, int num_segments,
                       WalOptions options, std::uint64_t end_lsn)
    : storage_(storage),
      num_segments_(num_segments),
      options_(options),
      end_lsn_(end_lsn),
      // Everything on disk at open time is durable: either it was synced,
      // or recovery truncated to the honoured prefix and synced the result.
      durable_lsn_(end_lsn),
      gate_(options.group, &metrics_) {}

Result<std::unique_ptr<WalManager>> WalManager::Open(WalStorage* storage,
                                                     int num_segments,
                                                     WalOptions options) {
  HDD_ASSIGN_OR_RETURN(const std::uint64_t size, storage->Size(kWalLogName));
  return std::unique_ptr<WalManager>(
      new WalManager(storage, num_segments, options, size));
}

Result<std::uint64_t> WalManager::AppendRecord(const WalRecord& record) {
  HDD_TRACE_SPAN("wal", "append");
  // Allocation and encoding stay outside the critical section; inside it
  // only the position-dependent work runs: stamp the LSN, CRC, append.
  std::string frame = EncodeUnsealedWalFrame(record);
  std::uint64_t end = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    SealWalFrame(&frame, end_lsn_);
    HDD_RETURN_IF_ERROR(storage_->Append(kWalLogName, frame));
    end_lsn_ += frame.size();
    end = end_lsn_;
  }
  metrics_.records_appended.Add(1);
  metrics_.bytes_appended.Add(frame.size());
  return end;
}

Result<std::uint64_t> WalManager::LogWrite(SegmentId segment, TxnId txn,
                                           Timestamp init_ts,
                                           std::uint32_t granule,
                                           Value value) {
  if (segment < 0 || segment >= num_segments_) {
    return Status::InvalidArgument("WAL write for unknown segment " +
                                   std::to_string(segment));
  }
  WalRecord record;
  record.type = WalRecordType::kWrite;
  record.txn = txn;
  record.init_ts = init_ts;
  record.segment = segment;
  record.granule = granule;
  record.value = value;
  return AppendRecord(record);
}

Result<std::uint64_t> WalManager::LogCommit(TxnId txn, Timestamp init_ts) {
  WalRecord record;
  record.type = WalRecordType::kCommit;
  record.txn = txn;
  record.init_ts = init_ts;
  pending_commits_.fetch_add(1, std::memory_order_relaxed);
  return AppendRecord(record);
}

Result<std::uint64_t> WalManager::LogAbort(TxnId txn, Timestamp init_ts) {
  WalRecord record;
  record.type = WalRecordType::kAbort;
  record.txn = txn;
  record.init_ts = init_ts;
  return AppendRecord(record);
}

Result<std::uint64_t> WalManager::LogPrepare(TxnId txn, Timestamp init_ts) {
  WalRecord record;
  record.type = WalRecordType::kPrepare;
  record.txn = txn;
  record.init_ts = init_ts;
  return AppendRecord(record);
}

Result<std::uint64_t> WalManager::LogReadBound(Timestamp now) {
  WalRecord record;
  record.type = WalRecordType::kReadBound;
  record.init_ts = now;
  return AppendRecord(record);
}

Result<SyncBatch> WalManager::SyncAll() {
  SyncBatch batch;
  std::uint64_t durable = 0;
  {
    // Captured under the append mutex: every record below the capture has
    // finished its storage append, so the Sync below covers it. Appends
    // racing the Sync may ride along, which only makes the published
    // point tighter than claimed.
    std::lock_guard<std::mutex> lock(mu_);
    batch.stable_lsn = end_lsn_;
    durable = durable_lsn_;
  }
  batch.commits_covered = pending_commits_.exchange(0);
  if (batch.stable_lsn == durable) return batch;  // a clean log costs no sync
  HDD_RETURN_IF_ERROR(storage_->Sync(kWalLogName));
  metrics_.fsyncs.Add(1);
  std::lock_guard<std::mutex> lock(mu_);
  durable_lsn_ = std::max(durable_lsn_, batch.stable_lsn);
  return batch;
}

PendingWork WalManager::Pending() const {
  PendingWork work;
  {
    std::lock_guard<std::mutex> lock(mu_);
    work.bytes = end_lsn_ - durable_lsn_;
  }
  work.commits = pending_commits_.load(std::memory_order_relaxed);
  return work;
}

Status WalManager::WaitDurable(std::uint64_t lsn) {
  if (options_.mutation_skip_commit_sync) return Status::OK();
  return gate_.AwaitDurable(
      lsn, [this] { return SyncAll(); }, [this] { return Pending(); });
}

Status WalManager::AwaitReadStable() { return WaitDurable(EndLsn()); }

std::uint64_t WalManager::EndLsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return end_lsn_;
}

}  // namespace hdd
