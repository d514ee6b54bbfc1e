#ifndef HDDBENCH_STATS_H_
#define HDDBENCH_STATS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "engine/executor.h"

namespace hddbench {

/// A percentile is reported only when at least this many samples lie
/// strictly above it; otherwise the run was too short to support it.
inline constexpr std::size_t kMinBeyond = 10;

/// Fixed-capacity uniform sample of one thread's observations; memory
/// stays flat however long a run lasts. Merged by Quantile.
using Reservoir = hdd::LatencyReservoir;

/// One T per thread that touches it, created on first use and owned here
/// so it outlives the thread. A thread caches its slot keyed by a
/// generation number, never by address, so a new instance (or a Clear)
/// never hands out a stale slot. A thread should use one live instance
/// per T at a time: switching between two re-registers each time.
template <typename T>
class PerThread {
 public:
  PerThread() : generation_(NextGeneration()) {}
  PerThread(const PerThread&) = delete;
  PerThread& operator=(const PerThread&) = delete;

  T& Local() {
    thread_local Cache cache;
    if (cache.generation != generation_.load(std::memory_order_acquire)) {
      std::lock_guard<std::mutex> lock(mu_);
      slots_.push_back(std::make_unique<T>());
      cache.generation = generation_.load(std::memory_order_relaxed);
      cache.slot = slots_.back().get();
    }
    return *cache.slot;
  }

  std::vector<const T*> All() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<const T*> out;
    for (const auto& slot : slots_) out.push_back(slot.get());
    return out;
  }

  /// Drops every slot; call only while no thread uses this instance.
  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    slots_.clear();
    generation_.store(NextGeneration(), std::memory_order_release);
  }

 private:
  struct Cache {
    std::uint64_t generation = 0;
    T* slot = nullptr;
  };
  static std::uint64_t NextGeneration() {
    static std::atomic<std::uint64_t> next{1};
    return next.fetch_add(1);
  }

  std::atomic<std::uint64_t> generation_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<T>> slots_;
};

/// Nearest-rank quantile `q` of `samples`, or nullopt when fewer than
/// kMinBeyond samples lie strictly above it (or there are none).
std::optional<double> Quantile(std::vector<double> samples, double q);

/// The same over several reservoirs: each retained sample stands for
/// count/size observations of its own reservoir, and the support rule
/// counts retained samples.
std::optional<double> Quantile(const std::vector<const Reservoir*>& parts,
                               double q);

/// Observations offered to `parts` in total.
std::uint64_t TotalCount(const std::vector<const Reservoir*>& parts);

/// A measured run is cut into this many windows of equal program count,
/// by completion order. End-to-end figures are medians over windows, so a
/// host stall that hits one window does not move them. Windows last about
/// 0.13 s, short enough that host steal (QuietWindows) falls in some and
/// not others.
inline constexpr std::size_t kWindows = 150;

double Median(std::vector<double> values);

/// CPU time the hypervisor gave to other guests ("steal" in /proc/stat),
/// all CPUs summed, in clock ticks; 0 where the host does not report it.
std::uint64_t StealTicks();

/// The windows a run's end-to-end figures are taken from: those whose
/// steal is at most the first quartile of the windows' steal. Steal is
/// time the host took the CPUs away, so a window with more of it measures
/// the host, not the program. With no steal anywhere every window is kept;
/// at least a quarter always are. `steal[w]` is window w's steal.
std::vector<std::size_t> QuietWindows(const std::vector<std::uint64_t>& steal);

/// The elements of `all` at `indices`.
template <typename T>
std::vector<T> Pick(const std::vector<T>& all,
                    const std::vector<std::size_t>& indices) {
  std::vector<T> out;
  for (std::size_t i : indices) out.push_back(all[i]);
  return out;
}

/// Quantile `q` per window group, then the median over groups. Groups are
/// runs of adjacent windows, as many as possible (a divisor of the window
/// count) such that every group supports the quantile. `windows[w]` holds
/// window w's reservoirs. nullopt when even one group of all windows does
/// not support it.
struct WindowedQuantile {
  std::optional<double> value;
  std::uint64_t samples = 0;
  std::size_t groups = 0;
};
WindowedQuantile MedianOverWindows(
    const std::vector<std::vector<const Reservoir*>>& windows, double q);

/// One timed interval at a layer boundary. `parent` is the id of the span
/// that caused it (0 for a root); spans of one transaction share `txn`.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t txn = 0;
  std::uint32_t kind = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Self time of every span, in input order: its duration minus the part
/// of its interval covered by the union of its direct children (clipped
/// to the span). Children whose parent is absent are ignored.
std::vector<std::int64_t> SelfTimes(const std::vector<Span>& spans);

}  // namespace hddbench

#endif  // HDDBENCH_STATS_H_
