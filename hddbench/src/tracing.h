#ifndef HDDBENCH_TRACING_H_
#define HDDBENCH_TRACING_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "cc/controller.h"
#include "hdd/hdd_controller.h"
#include "stats.h"
#include "wal/wal_storage.h"

namespace hddbench {

/// Layer boundaries the traced run times. Controller reads are split by
/// the protocol that serves them.
enum class Kind : std::uint32_t {
  kTxn,          // one program, first Begin to final Commit (in-process)
  kBegin,
  kReadA,        // cross-segment read of an update txn (Protocol A)
  kReadB,        // own-segment read (Protocol B)
  kReadC,        // read-only txn read (Protocol C)
  kWrite,
  kCommit,
  kAbort,
  kWalAppend,
  kWalSync,
  kGcPass,       // HddController::CollectGarbage
  kWallRelease,  // HddController::ReleaseNewWall
  kGcDrain,      // the GC hook's wait for in-flight read-only programs
  kCount,
};
inline constexpr std::size_t kNumKinds = static_cast<std::size_t>(Kind::kCount);
const char* KindName(Kind kind);

std::int64_t NowNs();

/// Per-thread record of one traced phase: every boundary crossing is
/// counted and its duration summed; spans are kept for sampled
/// transactions only, which bounds memory on fast workloads.
struct ThreadLog {
  std::array<std::uint64_t, kNumKinds> count{};
  std::array<std::int64_t, kNumKinds> total_ns{};
  std::uint64_t wal_bytes = 0;
  std::vector<Span> spans;
};

/// Collects spans in memory for one traced phase and hands them out at
/// the end. Threads register lazily on their first span. Spans are kept
/// for one transaction in `sample_every`; spans outside a transaction
/// (GC passes, wall releases, GC drains) are all kept.
class Tracer {
 public:
  /// Spans are kept for one transaction in `sample_every` (1 = all).
  explicit Tracer(std::uint64_t sample_every) : sample_every_(sample_every) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens the calling thread's transaction span; the controller calls
  /// that follow nest under it until EndTxn.
  void BeginTxn();
  void EndTxn();

  void AddWalBytes(std::uint64_t bytes);

  /// Thread logs so far; call once every traced thread has stopped.
  std::vector<const ThreadLog*> logs() const;

  /// Forgets everything recorded so far (warm-up traffic); call only
  /// while no traced thread runs.
  void Reset();

  /// All kept spans, merged across threads.
  std::vector<Span> spans() const;

  /// Writes the kept spans as tab-separated text, one per line.
  bool WriteSpans(const std::string& path) const;

 private:
  friend class SpanScope;
  /// A thread's log plus where it stands in the span tree.
  struct Slot {
    ThreadLog log;
    std::uint64_t thread_id = 0;
    std::uint64_t seq = 0;
    std::uint64_t open = 0;  // innermost open span id
    std::uint64_t txn = 0;   // open transaction span id
    std::int64_t txn_start_ns = 0;
    bool sampled = true;
  };
  Slot& Local();
  static std::uint64_t NextId(Slot& slot) {
    return (slot.thread_id << 40) | ++slot.seq;
  }

  std::uint64_t sample_every_;
  std::atomic<std::uint64_t> txn_counter_{0};
  std::atomic<std::uint64_t> next_thread_{1};
  PerThread<Slot> slots_;
};

/// Times one boundary crossing on the calling thread: nests under the
/// innermost open span and becomes the parent of spans opened inside it.
class SpanScope {
 public:
  SpanScope(Tracer& tracer, Kind kind, std::uint64_t txn = 0);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer& tracer_;
  Kind kind_;
  std::uint64_t txn_;
  std::uint64_t id_;
  std::uint64_t parent_;
  std::int64_t start_ns_;
};

/// Timing decorator over HddController's ConcurrencyController interface.
/// Reads are classified by protocol from the transaction and the target
/// segment's class (the benchmark never restructures, so the class map
/// taken at construction stays valid).
class TracedController : public hdd::ConcurrencyController {
 public:
  TracedController(hdd::HddController* inner, Tracer* tracer);

  std::string_view name() const override { return inner_->name(); }
  hdd::Result<hdd::TxnDescriptor> Begin(
      const hdd::TxnOptions& options) override;
  hdd::Result<hdd::Value> Read(const hdd::TxnDescriptor& txn,
                               hdd::GranuleRef granule) override;
  hdd::Status Write(const hdd::TxnDescriptor& txn, hdd::GranuleRef granule,
                    hdd::Value value) override;
  hdd::Status Commit(const hdd::TxnDescriptor& txn) override;
  hdd::Status Abort(const hdd::TxnDescriptor& txn) override;

 private:
  hdd::HddController* inner_;
  Tracer* tracer_;
  std::vector<hdd::ClassId> class_of_segment_;
};

/// Timing decorator over the WalStorage interface (Append and Sync are
/// the calls a running workload makes; the rest pass through).
class TracedWalStorage : public hdd::WalStorage {
 public:
  TracedWalStorage(hdd::WalStorage* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  hdd::Result<std::string> Read(const std::string& name) override {
    return inner_->Read(name);
  }
  hdd::Result<std::uint64_t> Size(const std::string& name) override {
    return inner_->Size(name);
  }
  hdd::Status Append(const std::string& name, std::string_view data) override;
  hdd::Status Sync(const std::string& name) override;
  hdd::Status Truncate(const std::string& name, std::uint64_t size) override {
    return inner_->Truncate(name, size);
  }

 private:
  hdd::WalStorage* inner_;
  Tracer* tracer_;
};

}  // namespace hddbench

#endif  // HDDBENCH_TRACING_H_
