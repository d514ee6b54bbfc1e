// The reader-striped structure gate: an exclusive holder excludes readers
// on every stripe, shared holders on different stripes coexist, and a
// failed try_lock leaves no stripe held (what the cooperative spin of
// HddController::Restructure under simulation relies on). Also the
// spin-then-park class-shard latch (LockShard): it must still exclude.

#include "hdd/structure_gate.h"

#include <gtest/gtest.h>

#include "hdd/shard_latch.h"

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <thread>
#include <vector>

namespace hdd {
namespace {

constexpr std::size_t kStripes = StructureGate::kStripes;

// Runs `fn` on kStripes fresh threads, one after another. Threads take
// stripes round-robin in order of first use, so together they use every
// stripe; returns the stripes they used.
template <typename Fn>
std::set<std::size_t> OnEveryStripe(Fn fn) {
  std::set<std::size_t> used;
  for (std::size_t i = 0; i < kStripes; ++i) {
    std::thread([&] {
      used.insert(StructureGate::ThreadStripe());
      fn();
    }).join();
  }
  return used;
}

TEST(StructureGateTest, ExclusiveHolderExcludesReadersOnEveryStripe) {
  StructureGate gate;
  std::unique_lock<StructureGate> exclusive(gate);
  int admitted = 0;
  const std::set<std::size_t> used = OnEveryStripe([&] {
    if (gate.try_lock_shared()) {
      ++admitted;
      gate.unlock_shared();
    }
  });
  EXPECT_EQ(used.size(), kStripes);
  EXPECT_EQ(admitted, 0);
  exclusive.unlock();
  admitted = 0;
  OnEveryStripe([&] {
    std::shared_lock<StructureGate> shared(gate);
    ++admitted;
  });
  EXPECT_EQ(admitted, static_cast<int>(kStripes));
}

TEST(StructureGateTest, ReadersOnDifferentStripesCoexist) {
  StructureGate gate;
  std::shared_lock<StructureGate> mine(gate);
  int admitted = 0;
  OnEveryStripe([&] {
    if (gate.try_lock_shared()) {
      ++admitted;
      gate.unlock_shared();
    }
  });
  EXPECT_EQ(admitted, static_cast<int>(kStripes));
  EXPECT_FALSE(gate.try_lock());
}

// A reader parked on the LAST stripe makes try_lock fail after it took
// every other stripe; the rollback must release all of them.
TEST(StructureGateTest, FailedTryLockLeavesNoStripeHeld) {
  StructureGate gate;
  std::mutex mu;
  std::condition_variable cv;
  bool reported = false;
  bool holding = false;
  bool release = false;
  // Fresh threads take consecutive stripes, so one of the next kStripes
  // lands on the last stripe; that one holds it shared until released.
  std::thread holder;
  for (std::size_t i = 0; i < kStripes && !holding; ++i) {
    std::thread helper([&] {
      const bool last = StructureGate::ThreadStripe() == kStripes - 1;
      std::shared_lock<StructureGate> shared(gate, std::defer_lock);
      if (last) shared.lock();
      std::unique_lock<std::mutex> lock(mu);
      holding = last;
      reported = true;
      cv.notify_all();
      if (last) cv.wait(lock, [&] { return release; });
    });
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return reported; });
      reported = false;
    }
    if (holding) {
      holder = std::move(helper);
    } else {
      helper.join();
    }
  }
  ASSERT_TRUE(holding);

  EXPECT_FALSE(gate.try_lock());
  // Nothing is left held exclusively: a reader on every stripe gets in.
  int admitted = 0;
  OnEveryStripe([&] {
    if (gate.try_lock_shared()) {
      ++admitted;
      gate.unlock_shared();
    }
  });
  EXPECT_EQ(admitted, static_cast<int>(kStripes));

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  holder.join();
  EXPECT_TRUE(gate.try_lock());
  gate.unlock();
}

// Writers under the exclusive gate and readers under the shared gate,
// concurrently: a reader never observes a half-done update.
TEST(StructureGateTest, ExclusiveUpdatesAreAtomicToReaders) {
  StructureGate gate;
  int a = 0;
  int b = 0;
  std::atomic<bool> torn{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 2000; ++i) {
        std::shared_lock<StructureGate> shared(gate);
        if (a != b) torn = true;
      }
    });
  }
  threads.emplace_back([&] {
    for (int i = 0; i < 500; ++i) {
      std::unique_lock<StructureGate> exclusive(gate);
      ++a;
      std::this_thread::yield();
      ++b;
    }
  });
  for (std::thread& thread : threads) thread.join();
  EXPECT_FALSE(torn.load());
  EXPECT_EQ(a, 500);
  EXPECT_EQ(b, 500);
}

// LockShard spins on try_lock before parking; whichever way a thread gets
// the latch, it must hold it alone. A plain (non-atomic) counter makes any
// overlap a lost update and a TSan report.
TEST(ShardLatchTest, LockShardExcludes) {
  constexpr int kThreads = 4;
  constexpr int kIncrements = 100000;
  std::mutex mu;
  long counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrements; ++i) {
        const auto held = LockShard(mu);
        ++counter;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter, static_cast<long>(kThreads) * kIncrements);
  EXPECT_TRUE(mu.try_lock()) << "LockShard left the latch held";
  mu.unlock();
}

}  // namespace
}  // namespace hdd
