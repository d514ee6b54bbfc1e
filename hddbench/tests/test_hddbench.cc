// Tests of the benchmark's own machinery: the percentile support rule,
// self-time arithmetic, window selection, and that each correctness
// check fails on an injected fault.
//
//   cmake --build .bench_build/hddbench --target hddbench_tests
//   .bench_build/hddbench/hddbench_tests

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "checks.h"
#include "engine/executor.h"
#include "engine/synthetic_workload.h"
#include "graph/dhg.h"
#include "hdd/hdd_controller.h"
#include "stats.h"
#include "wal/wal_manager.h"
#include "wal/wal_storage.h"

namespace hddbench {
namespace {

std::vector<double> Range(int n) {
  std::vector<double> out;
  for (int i = 1; i <= n; ++i) out.push_back(i);
  return out;
}

// --- the ">= 10 samples beyond the percentile" rule -----------------------

TEST(PercentileRule, ReportsOnlyWithTenSamplesBeyond) {
  EXPECT_EQ(Quantile(Range(100), 0.50), 50.0);
  // p99 of 1..1000 is 990, with exactly 10 samples above it.
  EXPECT_EQ(Quantile(Range(1000), 0.99), 990.0);
  // p99 of 1..999 is 990 too, with only 9 above it.
  EXPECT_EQ(Quantile(Range(999), 0.99), std::nullopt);
  EXPECT_EQ(Quantile(Range(100), 0.99), std::nullopt);
  EXPECT_EQ(Quantile(std::vector<double>{}, 0.50), std::nullopt);
}

TEST(PercentileRule, TiesAtThePercentileDoNotCountAsBeyond) {
  std::vector<double> samples(100, 7.0);
  for (int i = 0; i < 9; ++i) samples.push_back(8.0);
  EXPECT_EQ(Quantile(samples, 0.50), std::nullopt);
  samples.push_back(8.0);
  EXPECT_EQ(Quantile(samples, 0.50), 7.0);
}

TEST(PercentileRule, WindowsMergeUntilEachGroupSupportsThePercentile) {
  // kWindows windows of 400 samples: p99 needs 1000 per group, so the
  // windows merge into groups of 3 (1200 samples each).
  std::vector<Reservoir> reservoirs(kWindows, Reservoir(1 << 12, 1));
  std::vector<std::vector<const Reservoir*>> windows;
  for (std::size_t w = 0; w < kWindows; ++w) {
    for (int i = 1; i <= 400; ++i) reservoirs[w].Add(i);
    windows.push_back({&reservoirs[w]});
  }
  const WindowedQuantile p50 = MedianOverWindows(windows, 0.50);
  EXPECT_EQ(p50.groups, kWindows);
  EXPECT_EQ(p50.value, 200.0);
  const WindowedQuantile p99 = MedianOverWindows(windows, 0.99);
  EXPECT_EQ(p99.groups, kWindows / 3);
  EXPECT_EQ(p99.samples, 400 * kWindows);
  ASSERT_TRUE(p99.value.has_value());

  // Too few samples overall: no grouping supports p99.
  std::vector<Reservoir> sparse(kWindows, Reservoir(1 << 12, 1));
  std::vector<std::vector<const Reservoir*>> sparse_windows;
  for (std::size_t w = 0; w < kWindows; ++w) {
    for (int i = 1; i <= 5; ++i) sparse[w].Add(i);
    sparse_windows.push_back({&sparse[w]});
  }
  EXPECT_FALSE(MedianOverWindows(sparse_windows, 0.99).value.has_value());
}

// --- self time --------------------------------------------------------------

TEST(SelfTime, SubtractsTheUnionOfDirectChildrenClippedToTheParent) {
  const std::vector<Span> spans = {
      {1, 0, 1, 0, 0, 100},    // txn
      {2, 1, 1, 0, 10, 30},    // child
      {3, 1, 1, 0, 20, 50},    // overlapping child: union [10, 50)
      {4, 1, 1, 0, 90, 120},   // child running past the parent: [90, 100)
      {5, 2, 1, 0, 12, 18},    // grandchild: counts against span 2 only
      {6, 99, 1, 0, 0, 5},     // parent never recorded: ignored as a child
  };
  const std::vector<std::int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 100 - 40 - 10);
  EXPECT_EQ(self[1], 20 - 6);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 30);
  EXPECT_EQ(self[4], 6);
  EXPECT_EQ(self[5], 5);
}

// --- window selection ------------------------------------------------------

TEST(QuietWindows, DropsWindowsWithMoreStealThanTheFirstQuartile) {
  const std::vector<std::size_t> quiet =
      QuietWindows({0, 9, 1, 4, 5, 2, 3, 1});
  EXPECT_EQ(quiet, (std::vector<std::size_t>{0, 2, 7}));
  EXPECT_EQ(Pick(std::vector<double>{10, 20, 30, 40, 50, 60, 70, 80}, quiet),
            (std::vector<double>{10, 30, 80}));
}

TEST(QuietWindows, KeepsEveryWindowWithoutSteal) {
  EXPECT_EQ(QuietWindows({0, 0, 0, 0}).size(), 4u);
  EXPECT_EQ(QuietWindows({3, 3, 3}).size(), 3u);
  EXPECT_TRUE(QuietWindows({}).empty());
}

// --- recovery check ---------------------------------------------------------

// Passes everything through except one append, which it reports written
// but discards; the sync that follows succeeds, so the WAL acknowledges a
// commit whose record never reached storage.
class DroppingStorage : public hdd::WalStorage {
 public:
  DroppingStorage(hdd::WalStorage* inner, int drop_append)
      : inner_(inner), drop_append_(drop_append) {}
  hdd::Result<std::string> Read(const std::string& name) override {
    return inner_->Read(name);
  }
  hdd::Result<std::uint64_t> Size(const std::string& name) override {
    return inner_->Size(name);
  }
  hdd::Status Append(const std::string& name, std::string_view data) override {
    if (appends_.fetch_add(1) == drop_append_) return hdd::Status::OK();
    return inner_->Append(name, data);
  }
  hdd::Status Sync(const std::string& name) override {
    return inner_->Sync(name);
  }
  hdd::Status Truncate(const std::string& name, std::uint64_t size) override {
    return inner_->Truncate(name, size);
  }

 private:
  hdd::WalStorage* inner_;
  int drop_append_;
  std::atomic<int> appends_{0};
};

// Runs a small write workload with its log on `storage`, then checks the
// log recovers the live state.
hdd::Status RunAndCheckRecovery(hdd::WalStorage* log, hdd::WalStorage* durable) {
  hdd::SyntheticWorkloadParams params;
  params.depth = 3;
  params.granules_per_segment = 32;
  params.own_writes = 2;
  hdd::SyntheticWorkload workload(params);
  auto schema = hdd::HierarchySchema::Create(workload.Spec());
  EXPECT_TRUE(schema.ok());
  auto db = workload.MakeDatabase();
  auto wal = hdd::WalManager::Open(log, db->num_segments(), {});
  EXPECT_TRUE(wal.ok());
  db->AttachWal(wal->get());
  {
    hdd::LogicalClock clock;
    hdd::HddController cc(db.get(), &clock, &*schema);
    hdd::ExecutorOptions options;
    options.num_threads = 2;
    const hdd::ExecutorStats stats = hdd::RunWorkload(cc, workload, 400, options);
    EXPECT_EQ(stats.failed, 0u);
  }
  db->AttachWal(nullptr);
  double recover_s = 0.0;
  return CheckRecovery(durable, *db, &recover_s);
}

TEST(CorrectnessChecks, IntactLogPassesTheRecoveryComparison) {
  hdd::SimWalStorage storage;
  EXPECT_TRUE(RunAndCheckRecovery(&storage, &storage).ok());
}

TEST(CorrectnessChecks, OneDiscardedSyncedAppendFailsTheRecoveryComparison) {
  hdd::SimWalStorage storage;
  DroppingStorage dropping(&storage, /*drop_append=*/100);
  const hdd::Status status = RunAndCheckRecovery(&dropping, &storage);
  EXPECT_FALSE(status.ok());
}

// --- serializability check -------------------------------------------------

TEST(CorrectnessChecks, LostUpdateFailsTheSerializabilityCheck) {
  // t1 and t2 both read x's initial version, then both write x.
  hdd::ScheduleRecorder recorder;
  const hdd::GranuleRef x{0, 0};
  recorder.RecordBegin(1, 0, false, 1);
  recorder.RecordBegin(2, 0, false, 2);
  recorder.RecordRead(1, x, 0);
  recorder.RecordRead(2, x, 0);
  recorder.RecordWrite(1, x, 1);
  recorder.RecordWrite(2, x, 2);
  recorder.RecordOutcome(1, hdd::TxnState::kCommitted);
  recorder.RecordOutcome(2, hdd::TxnState::kCommitted);
  EXPECT_FALSE(CheckSerializable(recorder).ok());

  hdd::ScheduleRecorder serial;
  serial.RecordRead(1, x, 0);
  serial.RecordWrite(1, x, 1);
  serial.RecordOutcome(1, hdd::TxnState::kCommitted);
  serial.RecordRead(2, x, 1);
  serial.RecordWrite(2, x, 2);
  serial.RecordOutcome(2, hdd::TxnState::kCommitted);
  EXPECT_TRUE(CheckSerializable(serial).ok());
}

}  // namespace
}  // namespace hddbench
