#include "wal/segment_log.h"

namespace hdd {

SegmentLog::SegmentLog(WalStorage* storage, std::string name,
                       std::uint64_t end)
    : storage_(storage),
      name_(std::make_unique<std::string>(std::move(name))),
      mu_(std::make_unique<std::mutex>()),
      end_lsn_(end),
      // Everything on disk at open time is durable: either it was synced,
      // or recovery truncated to the valid prefix and synced the result.
      durable_lsn_(end) {}

Result<SegmentLog> SegmentLog::Open(WalStorage* storage, std::string name) {
  HDD_ASSIGN_OR_RETURN(const std::uint64_t size, storage->Size(name));
  return SegmentLog(storage, std::move(name), size);
}

Result<std::uint64_t> SegmentLog::Append(
    WalRecord record, std::atomic<std::uint64_t>* ticket_counter,
    std::uint64_t* ticket_out) {
  std::lock_guard<std::mutex> lock(*mu_);
  record.ticket = ticket_counter->fetch_add(1, std::memory_order_acq_rel) + 1;
  *ticket_out = record.ticket;
  std::string frame;
  AppendFrame(&frame, EncodeWalRecord(record));
  HDD_RETURN_IF_ERROR(storage_->Append(*name_, frame));
  end_lsn_ += frame.size();
  return frame.size();
}

Status SegmentLog::Sync() {
  std::unique_lock<std::mutex> lock(*mu_);
  const std::uint64_t target = end_lsn_;
  if (target == durable_lsn_) return Status::OK();
  // Sync without the latch held: appenders may keep appending (their
  // bytes ride along harmlessly); only the durable mark needs the latch.
  lock.unlock();
  HDD_RETURN_IF_ERROR(storage_->Sync(*name_));
  lock.lock();
  if (target > durable_lsn_) durable_lsn_ = target;
  return Status::OK();
}

std::uint64_t SegmentLog::end_lsn() const {
  std::lock_guard<std::mutex> lock(*mu_);
  return end_lsn_;
}

std::uint64_t SegmentLog::durable_lsn() const {
  std::lock_guard<std::mutex> lock(*mu_);
  return durable_lsn_;
}

std::uint64_t SegmentLog::unsynced_bytes() const {
  std::lock_guard<std::mutex> lock(*mu_);
  return end_lsn_ - durable_lsn_;
}

}  // namespace hdd
