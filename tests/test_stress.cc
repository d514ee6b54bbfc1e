// Randomized stress tests of the low-level substrates: lock-manager
// invariants under concurrent acquire/release storms, version-chain
// integrity under random insert/remove/prune, and concurrent segment
// allocation.

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "cc/lock_manager.h"
#include "common/rng.h"
#include "storage/database.h"

namespace hdd {
namespace {

TEST(LockManagerStressTest, RandomStormKeepsMutualExclusion) {
  LockManager lm(DeadlockPolicy::kDetect);
  constexpr int kGranules = 4;
  constexpr int kThreads = 4;
  constexpr int kRounds = 300;

  // One owner slot per granule; X holders assert sole ownership.
  std::vector<std::atomic<int>> owner(kGranules);
  for (auto& o : owner) o = -1;
  std::atomic<int> violations{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(900 + static_cast<std::uint64_t>(t));
      const TxnId me = static_cast<TxnId>(t) + 1;
      for (int round = 0; round < kRounds; ++round) {
        const GranuleRef g{0, static_cast<std::uint32_t>(
                                  rng.NextBounded(kGranules))};
        const bool exclusive = rng.NextBool(0.4);
        Status status =
            lm.Acquire(me, me, g, exclusive ? LockMode::kExclusive
                                            : LockMode::kShared,
                       nullptr);
        if (!status.ok()) {
          lm.ReleaseAll(me);
          continue;
        }
        if (exclusive) {
          int expected = -1;
          if (!owner[g.index].compare_exchange_strong(expected, t)) {
            violations.fetch_add(1);
          }
          std::this_thread::yield();
          owner[g.index] = -1;
        } else {
          if (owner[g.index].load() != -1) violations.fetch_add(1);
          std::this_thread::yield();
        }
        if (rng.NextBool(0.5)) lm.ReleaseAll(me);
      }
      lm.ReleaseAll(me);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(violations.load(), 0);
  for (TxnId t = 1; t <= kThreads; ++t) EXPECT_EQ(lm.NumHeld(t), 0u);
}

TEST(GranuleStressTest, RandomChainOperationsKeepInvariants) {
  Rng rng(4242);
  for (int trial = 0; trial < 30; ++trial) {
    Granule g(0);
    std::set<std::uint64_t> live_keys = {0};
    Timestamp now = 1;
    for (int op = 0; op < 200; ++op) {
      const double roll = rng.NextDouble();
      if (roll < 0.5) {
        Version v;
        v.order_key = ++now;
        v.wts = now;
        v.creator = now;
        v.value = static_cast<Value>(now);
        v.committed = rng.NextBool(0.8);
        ASSERT_TRUE(g.Insert(v).ok());
        live_keys.insert(v.order_key);
      } else if (roll < 0.65 && live_keys.size() > 1) {
        auto it = live_keys.begin();
        std::advance(it, static_cast<long>(
                             rng.NextBounded(live_keys.size())));
        if (g.Remove(*it).ok()) live_keys.erase(it);
      } else if (roll < 0.8) {
        const Timestamp horizon = rng.NextBounded(now + 2);
        g.Prune(horizon);
        live_keys.clear();
        for (const Version& v : g.versions()) {
          live_keys.insert(v.order_key);
        }
      } else {
        // Queries never crash and respect ordering invariants.
        const Timestamp probe = rng.NextBounded(now + 2);
        const Version* latest = g.LatestCommittedBefore(probe);
        if (latest != nullptr) {
          EXPECT_LT(latest->wts, probe);
          EXPECT_TRUE(latest->committed);
        }
      }
      // Chain stays sorted by order_key.
      for (std::size_t i = 0; i + 1 < g.versions().size(); ++i) {
        ASSERT_LT(g.versions()[i].order_key,
                  g.versions()[i + 1].order_key);
      }
    }
  }
}

TEST(SegmentStressTest, ConcurrentAllocationIsConsistent) {
  Database db(1, 0, 0);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  constexpr std::uint32_t kTotal = kThreads * kPerThread;
  std::vector<std::vector<std::uint32_t>> indexes(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        indexes[t].push_back(db.segment(0).Allocate(t));
      }
    });
  }
  // A latch-free reader alongside the allocators: the published count only
  // grows, and Validate agrees with it on both sides of the boundary.
  std::atomic<bool> allocating{true};
  std::atomic<int> reader_errors{0};
  std::thread reader([&] {
    std::uint32_t last = 0;
    do {
      const std::uint32_t n = db.segment(0).size();
      if (n < last || n > kTotal) reader_errors.fetch_add(1);
      if (n > 0 && !db.Validate({0, n - 1}).ok()) reader_errors.fetch_add(1);
      if (db.Validate({0, kTotal}).ok()) reader_errors.fetch_add(1);
      last = n;
    } while (allocating.load());
  });
  for (auto& t : threads) t.join();
  allocating.store(false);
  reader.join();
  EXPECT_EQ(reader_errors.load(), 0);
  // All indexes distinct and dense.
  std::set<std::uint32_t> all;
  for (const auto& v : indexes) all.insert(v.begin(), v.end());
  EXPECT_EQ(all.size(),
            static_cast<std::size_t>(kThreads * kPerThread));
  EXPECT_EQ(*all.rbegin(),
            static_cast<std::uint32_t>(kThreads * kPerThread - 1));
  EXPECT_EQ(db.segment(0).size(),
            static_cast<std::uint32_t>(kThreads * kPerThread));
}

TEST(ClockStressTest, HighContentionUniqueness) {
  LogicalClock clock;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::vector<Timestamp>> seen(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      seen[t].reserve(kPerThread);
      for (int i = 0; i < kPerThread; ++i) seen[t].push_back(clock.Tick());
    });
  }
  for (auto& t : threads) t.join();
  std::set<Timestamp> all;
  for (const auto& v : seen) all.insert(v.begin(), v.end());
  EXPECT_EQ(all.size(),
            static_cast<std::size_t>(kThreads * kPerThread));
}

}  // namespace
}  // namespace hdd
