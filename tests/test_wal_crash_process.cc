// On-disk kill -9 smoke test: a forked child logs transactions through
// FileWalStorage with per-commit fsync, records every ACKED commit in a
// separately fsynced side file, then dies by SIGKILL mid-stream. The
// parent recovers the WAL directory and checks the durability contract:
// every acknowledged commit is recovered. (A kill -9 only discards
// process state, not the page cache, so this exercises the real-file
// recovery path — the harsher lost-buffer model is covered by
// SimWalStorage in test_wal_format.cc and the sim sweeps.)

#include <fcntl.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>

#include "storage/database.h"
#include "wal/recovery.h"
#include "wal/wal_manager.h"
#include "wal/wal_storage.h"

namespace hdd {
namespace {

constexpr int kSegments = 2;
constexpr std::uint32_t kGranules = 2;
constexpr TxnId kAckedTxns = 40;

// Child body: never returns. Logs kAckedTxns committed transactions,
// appending each acked id to `ack_path` with its own fsync BEFORE moving
// on (so the side file is a durable lower bound on what was acked), then
// buffers a few more records without awaiting them and kills itself.
[[noreturn]] void RunChild(const std::string& wal_dir,
                           const std::string& ack_path) {
  FileWalStorage storage(wal_dir);
  WalOptions options;
  options.group.mode = WalSyncMode::kPerCommit;
  auto wal = WalManager::Open(&storage, kSegments, options);
  if (!wal.ok()) _exit(3);

  const int ack_fd =
      ::open(ack_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (ack_fd < 0) _exit(4);

  for (TxnId txn = 1; txn <= kAckedTxns; ++txn) {
    const Timestamp init_ts = 10 * txn;
    const SegmentId segment = static_cast<SegmentId>(txn % kSegments);
    const std::uint32_t granule =
        static_cast<std::uint32_t>(txn % kGranules);
    if (!(*wal)
             ->LogWrite(segment, txn, init_ts, granule,
                        static_cast<Value>(1000 + txn))
             .ok()) {
      _exit(5);
    }
    auto lsn = (*wal)->LogCommit(txn, init_ts);
    if (!lsn.ok()) _exit(6);
    if (!(*wal)->WaitDurable(*lsn).ok()) _exit(7);
    const std::string line = std::to_string(txn) + "\n";
    if (::write(ack_fd, line.data(), line.size()) !=
        static_cast<ssize_t>(line.size())) {
      _exit(8);
    }
    if (::fsync(ack_fd) != 0) _exit(9);
  }

  // A little unacked tail: appended, never awaited. Recovery may keep or
  // roll these back; either is consistent.
  (void)(*wal)->LogWrite(0, kAckedTxns + 1, 10 * (kAckedTxns + 1), 0, 7777);
  (void)(*wal)->LogCommit(kAckedTxns + 1, 10 * (kAckedTxns + 1));

  ::raise(SIGKILL);
  _exit(10);  // unreachable
}

TEST(WalProcessCrash, Kill9ThenRecoverKeepsEveryAckedCommit) {
  char dir_template[] = "hdd_walcrash.XXXXXX";
  ASSERT_NE(::mkdtemp(dir_template), nullptr) << std::strerror(errno);
  const std::string scratch = dir_template;
  const std::string wal_dir = scratch + "/wal";
  const std::string ack_path = scratch + "/acked.txt";

  const pid_t child = ::fork();
  ASSERT_GE(child, 0) << std::strerror(errno);
  if (child == 0) {
    RunChild(wal_dir, ack_path);  // never returns
  }

  int wstatus = 0;
  ASSERT_EQ(::waitpid(child, &wstatus, 0), child);
  ASSERT_TRUE(WIFSIGNALED(wstatus));
  ASSERT_EQ(WTERMSIG(wstatus), SIGKILL);

  // The acked set the child durably published before dying.
  std::set<TxnId> acked;
  std::ifstream in(ack_path);
  ASSERT_TRUE(in.good());
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) acked.insert(std::stoull(line));
  }
  ASSERT_EQ(acked.size(), kAckedTxns);

  FileWalStorage storage(wal_dir);
  Database db(kSegments, kGranules, 0);
  const auto report = RecoverDatabase(&storage, &db);
  ASSERT_TRUE(report.ok());
  for (const TxnId txn : acked) {
    EXPECT_EQ(report->durable_commits.count(txn), 1u) << "txn " << txn;
    const Version* v = db.segment(static_cast<SegmentId>(txn % kSegments))
                           .granule(static_cast<std::uint32_t>(txn % kGranules))
                           .Find(10 * txn);
    ASSERT_NE(v, nullptr) << "txn " << txn;
    EXPECT_EQ(v->value, static_cast<Value>(1000 + txn));
    EXPECT_TRUE(v->committed);
  }
  EXPECT_GE(report->max_timestamp, 10 * kAckedTxns);

  // The directory is reusable: a second recovery finds the log already
  // cut to its honoured end and recovers idempotently.
  const auto end = storage.Size(kWalLogName);
  ASSERT_TRUE(end.ok());
  Database again(kSegments, kGranules, 0);
  const auto report2 = RecoverDatabase(&storage, &again);
  ASSERT_TRUE(report2.ok());
  EXPECT_EQ(report2->durable_commits, report->durable_commits);
  EXPECT_EQ(storage.Size(kWalLogName).value(), *end);

  std::error_code ec;
  std::filesystem::remove_all(scratch, ec);
}

}  // namespace
}  // namespace hdd
