#include "wal/recovery.h"

#include <algorithm>
#include <chrono>
#include <unordered_map>
#include <utility>
#include <vector>

#include "wal/checkpoint.h"
#include "wal/log_format.h"
#include "wal/wal_manager.h"

namespace hdd {

namespace {

/// Drops a stream's torn tail (crash mid-append) so post-recovery appends
/// start at a frame boundary instead of burying garbage mid-log.
Status TruncateTornTail(WalStorage* storage, const std::string& name,
                        const ScanResult& scan, RecoveryReport* report) {
  if (!scan.torn_tail) return Status::OK();
  HDD_RETURN_IF_ERROR(storage->Truncate(name, scan.valid_end));
  HDD_RETURN_IF_ERROR(storage->Sync(name));
  ++report->torn_streams;
  return Status::OK();
}

}  // namespace

Result<RecoveryReport> RecoverDatabase(WalStorage* storage, Database* db,
                                       WalMetrics* metrics) {
  const auto started = std::chrono::steady_clock::now();
  RecoveryReport report;

  // Checkpoints first, per segment: restore the newest intact snapshot
  // (committed creators in a durable snapshot are durably committed — the
  // checkpoint hardened the log before persisting the snapshot, so their
  // commit records are on disk too) and note the log LSN it covers.
  std::vector<std::uint64_t> ckpt_lsns(
      static_cast<std::size_t>(db->num_segments()), 0);
  for (SegmentId s = 0; s < db->num_segments(); ++s) {
    Segment& segment = db->segment(s);
    const std::string ckpt_name = SegmentCheckpointName(s);
    {
      HDD_ASSIGN_OR_RETURN(const std::string data, storage->Read(ckpt_name));
      HDD_ASSIGN_OR_RETURN(const ScanResult scan, ScanFrames(data));
      HDD_RETURN_IF_ERROR(TruncateTornTail(storage, ckpt_name, scan, &report));
    }
    HDD_ASSIGN_OR_RETURN(std::optional<SegmentCheckpoint> ckpt,
                         LoadSegmentCheckpoint(storage, s));
    if (!ckpt.has_value()) continue;
    HDD_RETURN_IF_ERROR(DecodeSegmentChainsInto(ckpt->chains, &segment));
    ckpt_lsns[static_cast<std::size_t>(s)] = ckpt->log_end_lsn;
    for (std::uint32_t i = 0; i < segment.size(); ++i) {
      for (const Version& v : segment.granule(i).versions()) {
        if (v.committed && v.creator != kInvalidTxn) {
          report.durable_commits.insert(v.creator);
        }
      }
    }
  }

  // The log: one scan, applied in log order. Log order equals effect
  // order within each segment (records are appended under the shard latch
  // that installs the version), so this reconstructs the pre-crash chains.
  HDD_ASSIGN_OR_RETURN(const std::string data, storage->Read(kWalLogName));
  HDD_ASSIGN_OR_RETURN(const ScanResult scan, ScanFrames(data));
  HDD_RETURN_IF_ERROR(TruncateTornTail(storage, kWalLogName, scan, &report));
  // The granules each transaction's honoured writes name, until its
  // commit or abort record settles them — O(writes) per verdict, no
  // granule scan. A verdict settles only the versions at its own init_ts:
  // ids restart with each controller, so one id can name an aborted or
  // unfinished transaction of an earlier run and a committed one of a
  // later run, but the clock never restarts below a recovered timestamp.
  struct WriteRef {
    SegmentId segment;
    std::uint32_t granule;
  };
  std::unordered_map<TxnId, std::vector<WriteRef>> unsettled;
  // The version `record`'s transaction installed at `w`, if it is still
  // there (a snapshot may have lost it to GC).
  const auto find_own = [db](const WalRecord& record, const WriteRef& w) {
    Segment& segment = db->segment(w.segment);
    Version* v = w.granule < segment.size()
                     ? segment.granule(w.granule).Find(record.init_ts)
                     : nullptr;
    return v != nullptr && v->creator == record.txn ? v : nullptr;
  };
  std::uint64_t honoured_end = 0;
  std::size_t next = 0;
  for (; next < scan.frames.size(); ++next) {
    const ScannedFrame& frame = scan.frames[next];
    HDD_ASSIGN_OR_RETURN(const WalRecord record,
                         DecodeWalRecord(frame.payload));
    if (record.type == WalRecordType::kSegmentCheckpoint ||
        record.type == WalRecordType::kControlCheckpoint) {
      return Status::Corruption("checkpoint record inside the redo log");
    }
    // A stamp that disagrees with the frame's position: an earlier append
    // was acknowledged and lost. The honoured log ends here.
    if (record.lsn != honoured_end) break;
    honoured_end = frame.end_offset;
    report.max_timestamp = std::max(report.max_timestamp, record.init_ts);
    if (record.type == WalRecordType::kWrite) {
      if (record.segment < 0 || record.segment >= db->num_segments()) {
        return Status::Corruption("write record for unknown segment " +
                                  std::to_string(record.segment));
      }
      // Its version stays unsettled whether the snapshot or the replay
      // below installs it.
      unsettled[record.txn].push_back(
          WriteRef{record.segment, record.granule});
      // A frame wholly covered by the segment's checkpoint ends at or
      // before its LSN (captured at a frame boundary under the latch).
      if (frame.end_offset <=
          ckpt_lsns[static_cast<std::size_t>(record.segment)]) {
        continue;
      }
    }
    ++report.replayed_records;
    switch (record.type) {
      case WalRecordType::kWrite: {
        Segment& segment = db->segment(record.segment);
        while (segment.size() <= record.granule) segment.Allocate(0);
        Granule& g = segment.granule(record.granule);
        if (Version* existing = g.Find(record.init_ts)) {
          if (existing->creator != record.txn) {
            return Status::Corruption(
                "replay: order key " + std::to_string(record.init_ts) +
                " owned by two transactions");
          }
          existing->value = record.value;  // snapshot already had it
        } else {
          Version v;
          v.order_key = record.init_ts;
          v.wts = record.init_ts;
          v.creator = record.txn;
          v.value = record.value;
          v.committed = false;
          HDD_RETURN_IF_ERROR(g.Insert(v));
        }
        break;
      }
      case WalRecordType::kCommit: {
        // Honoured, so every record it causally depends on — its own
        // writes included — precedes it in the honoured prefix.
        report.durable_commits.insert(record.txn);
        const auto it = unsettled.find(record.txn);
        if (it == unsettled.end()) break;
        for (const WriteRef& w : it->second) {
          if (Version* v = find_own(record, w)) v->committed = true;
        }
        unsettled.erase(it);
        break;
      }
      case WalRecordType::kAbort: {
        const auto it = unsettled.find(record.txn);
        if (it != unsettled.end()) {
          for (const WriteRef& w : it->second) {
            const Version* v = find_own(record, w);
            if (v != nullptr && !v->committed) {
              HDD_RETURN_IF_ERROR(
                  db->segment(w.segment).granule(w.granule).Remove(
                      record.init_ts));
            }
          }
          unsettled.erase(it);
        }
        report.prepared.erase(record.txn);
        break;
      }
      case WalRecordType::kPrepare:
        // A 2PC participant promise; the verdict may be in the
        // coordinator's log only. Resolved below (and by the distributed
        // restart for transactions still in doubt).
        report.prepared.insert(record.txn);
        break;
      case WalRecordType::kReadBound:
        break;  // only its timestamp matters, folded in above
      case WalRecordType::kSegmentCheckpoint:
      case WalRecordType::kControlCheckpoint:
        break;  // rejected above
    }
  }
  // A checkpoint hardens the log before it persists, so its LSN lies
  // within the honoured log unless the snapshot reflects records the
  // storage lost. Neither the snapshot nor the cut log is then the
  // pre-crash state, and a reopened log would append below the stale LSN
  // (a later recovery would skip those writes as covered).
  for (SegmentId s = 0; s < db->num_segments(); ++s) {
    const std::uint64_t ckpt_lsn = ckpt_lsns[static_cast<std::size_t>(s)];
    if (ckpt_lsn > honoured_end) {
      return Status::Corruption(
          "checkpoint of segment " + std::to_string(s) + " covers log LSN " +
          std::to_string(ckpt_lsn) + " past the honoured log end " +
          std::to_string(honoured_end));
    }
  }
  if (next < scan.frames.size()) {
    for (std::size_t i = next; i < scan.frames.size(); ++i) {
      HDD_ASSIGN_OR_RETURN(const WalRecord lost,
                           DecodeWalRecord(scan.frames[i].payload));
      if (lost.type == WalRecordType::kCommit) ++report.incomplete_commits;
    }
    HDD_RETURN_IF_ERROR(storage->Truncate(kWalLogName, honoured_end));
    HDD_RETURN_IF_ERROR(storage->Sync(kWalLogName));
  }

  // Resolution: a version is committed by now iff its snapshot or a
  // commit record said so; discard the rest (writes of transactions with
  // no honoured verdict) and fold chain timestamps — including registered
  // read timestamps restored from checkpoints — into the clock floor.
  for (SegmentId s = 0; s < db->num_segments(); ++s) {
    Segment& segment = db->segment(s);
    for (std::uint32_t i = 0; i < segment.size(); ++i) {
      Granule& g = segment.granule(i);
      std::vector<std::uint64_t> doomed;
      for (const Version& v : g.versions()) {
        if (v.creator != kInvalidTxn && !v.committed) {
          doomed.push_back(v.order_key);
          if (report.prepared.count(v.creator) > 0) {
            // In-doubt 2PC write: keep it aside for the distributed
            // restart (the coordinator's log holds the verdict).
            report.prepared_writes.push_back(RecoveryReport::PreparedWrite{
                v.creator, s, i, v.order_key, v.value});
          }
          continue;
        }
        report.max_timestamp = std::max({report.max_timestamp, v.wts, v.rts});
      }
      for (const std::uint64_t key : doomed) {
        HDD_RETURN_IF_ERROR(g.Remove(key));
        ++report.discarded_uncommitted;
      }
    }
  }

  // A locally durable commit/abort verdict resolves the prepare; only the
  // rest stays in doubt for the distributed restart.
  for (auto it = report.prepared.begin(); it != report.prepared.end();) {
    it = report.durable_commits.count(*it) > 0 ? report.prepared.erase(it)
                                               : std::next(it);
  }

  HDD_ASSIGN_OR_RETURN(std::optional<std::string> control,
                       LoadControlCheckpoint(storage));
  if (control.has_value()) report.control_state = std::move(*control);
  {
    const std::string name = kControlCheckpointName;
    HDD_ASSIGN_OR_RETURN(const std::string data, storage->Read(name));
    HDD_ASSIGN_OR_RETURN(const ScanResult scan, ScanFrames(data));
    HDD_RETURN_IF_ERROR(TruncateTornTail(storage, name, scan, &report));
  }

  if (metrics != nullptr) {
    metrics->recovery_replayed_records.Add(report.replayed_records);
    metrics->recovery_replay_us.Add(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - started)
            .count()));
  }
  return report;
}

}  // namespace hdd
