#ifndef HDD_HDD_STRUCTURE_GATE_H_
#define HDD_HDD_STRUCTURE_GATE_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <shared_mutex>

namespace hdd {

/// A reader-striped shared mutex: `kStripes` cache-aligned
/// std::shared_mutex stripes. A shared holder locks only its own thread's
/// stripe, so concurrent readers on different threads never write the same
/// cacheline; an exclusive holder locks every stripe, in index order.
///
/// Meets the SharedMutex requirements, so std::shared_lock and
/// std::unique_lock work unchanged. A shared lock must be released by the
/// thread that took it (the stripe is the thread's). `try_lock` releases
/// the stripes it already took when a later one is busy, so a failed
/// attempt leaves nothing held — what lets an exclusive caller spin on it
/// cooperatively.
class StructureGate {
 public:
  static constexpr std::size_t kStripes = 16;

  StructureGate() = default;
  StructureGate(const StructureGate&) = delete;
  StructureGate& operator=(const StructureGate&) = delete;

  void lock_shared() { Mine().lock_shared(); }
  bool try_lock_shared() { return Mine().try_lock_shared(); }
  void unlock_shared() { Mine().unlock_shared(); }

  void lock() {
    for (Stripe& stripe : stripes_) stripe.mu.lock();
  }
  bool try_lock() {
    for (std::size_t s = 0; s < kStripes; ++s) {
      if (!stripes_[s].mu.try_lock()) {
        while (s > 0) stripes_[--s].mu.unlock();
        return false;
      }
    }
    return true;
  }
  void unlock() {
    for (std::size_t s = kStripes; s > 0; --s) stripes_[s - 1].mu.unlock();
  }

  /// The stripe the calling thread's shared locks use.
  static std::size_t ThreadStripe() {
    // Threads take stripes round-robin in order of first use, so up to
    // kStripes threads never share one.
    static std::atomic<std::size_t> next{0};
    thread_local const std::size_t stripe =
        next.fetch_add(1, std::memory_order_relaxed) % kStripes;
    return stripe;
  }

 private:
  struct alignas(64) Stripe {
    std::shared_mutex mu;
  };

  std::shared_mutex& Mine() { return stripes_[ThreadStripe()].mu; }

  std::array<Stripe, kStripes> stripes_;
};

}  // namespace hdd

#endif  // HDD_HDD_STRUCTURE_GATE_H_
