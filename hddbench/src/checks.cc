#include "checks.h"

#include <chrono>
#include <string>

#include "txn/dependency_graph.h"
#include "wal/recovery.h"

namespace hddbench {

hdd::Status CheckSerializable(const hdd::ScheduleRecorder& recorder) {
  const hdd::SerializabilityReport report = hdd::CheckSerializability(recorder);
  if (report.serializable) return hdd::Status::OK();
  return hdd::Status::Internal(
      "history not serializable: dependency cycle of " +
      std::to_string(report.witness_cycle.size()) + " transactions");
}

hdd::Status CheckRecovery(hdd::WalStorage* storage, const hdd::Database& live,
                          double* recover_seconds) {
  const int segments = live.num_segments();
  hdd::Database recovered(segments, segments > 0 ? live.segment(0).size() : 0);
  const auto t0 = std::chrono::steady_clock::now();
  hdd::Result<hdd::RecoveryReport> report =
      hdd::RecoverDatabase(storage, &recovered);
  *recover_seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
  if (!report.ok()) return report.status();

  std::uint64_t mismatches = 0;
  std::string first;
  for (hdd::SegmentId s = 0; s < segments; ++s) {
    const hdd::Segment& want = live.segment(s);
    const hdd::Segment& got = recovered.segment(s);
    for (std::uint32_t g = 0; g < want.size(); ++g) {
      const hdd::Version* a = want.granule(g).LatestCommitted();
      const hdd::Version* b = g < got.size() ? got.granule(g).LatestCommitted()
                                             : nullptr;
      const bool same = a != nullptr && b != nullptr && a->value == b->value;
      if (same) continue;
      if (mismatches++ == 0) {
        first = "segment " + std::to_string(s) + " granule " +
                std::to_string(g);
      }
    }
  }
  if (mismatches == 0) return hdd::Status::OK();
  return hdd::Status::Internal("recovered state differs from the live one in " +
                               std::to_string(mismatches) +
                               " granules, first at " + first);
}

}  // namespace hddbench
