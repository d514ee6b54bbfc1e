#ifndef HDD_HDD_SHARD_LATCH_H_
#define HDD_HDD_SHARD_LATCH_H_

#include <mutex>

namespace hdd {

/// Bounded spin before `LockShard` parks: a class-shard critical section
/// lasts about a microsecond, while a parked waiter pays a kernel wake-up
/// of tens of microseconds.
inline constexpr int kShardLatchSpins = 64;

/// A CPU hint that the caller is spinning: `pause` on x86, `yield` on
/// AArch64, nothing elsewhere.
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Acquires a class-shard latch: a short bounded `try_lock` spin, then a
/// blocking `lock()`. Uncontended, it costs the one `try_lock` that
/// replaces `lock()`. The returned lock works with
/// std::condition_variable waits like any other.
inline std::unique_lock<std::mutex> LockShard(std::mutex& mu) {
  for (int spin = 0; spin < kShardLatchSpins; ++spin) {
    if (mu.try_lock()) {
      return std::unique_lock<std::mutex>(mu, std::adopt_lock);
    }
    CpuRelax();
  }
  return std::unique_lock<std::mutex>(mu);
}

}  // namespace hdd

#endif  // HDD_HDD_SHARD_LATCH_H_
