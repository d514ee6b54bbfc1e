#ifndef HDDBENCH_CHECKS_H_
#define HDDBENCH_CHECKS_H_

#include "common/status.h"
#include "storage/database.h"
#include "txn/schedule.h"
#include "wal/wal_storage.h"

namespace hddbench {

/// The recorded history passes the §2 serializability oracle.
hdd::Status CheckSerializable(const hdd::ScheduleRecorder& recorder);

/// Recovers the log in `storage` into a fresh database shaped like `live`
/// and compares every granule's latest committed value with `live`'s.
/// `live` must be quiescent. Sets `*recover_seconds` to the time
/// RecoverDatabase took.
hdd::Status CheckRecovery(hdd::WalStorage* storage, const hdd::Database& live,
                          double* recover_seconds);

}  // namespace hddbench

#endif  // HDDBENCH_CHECKS_H_
