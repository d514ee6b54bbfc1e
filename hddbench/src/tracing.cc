#include "tracing.h"

#include <chrono>
#include <cstdio>

namespace hddbench {

const char* KindName(Kind kind) {
  static constexpr const char* kNames[kNumKinds] = {
      "txn",       "begin",    "read_a",  "read_b",       "read_c",
      "write",     "commit",   "abort",   "wal_append",   "wal_sync",
      "gc_pass",   "wall_release", "gc_drain"};
  return kNames[static_cast<std::size_t>(kind)];
}

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer::Slot& Tracer::Local() {
  Slot& slot = slots_.Local();
  if (slot.thread_id == 0) slot.thread_id = next_thread_.fetch_add(1);
  return slot;
}

void Tracer::Reset() {
  slots_.Clear();
  txn_counter_.store(0);
}

void Tracer::BeginTxn() {
  Slot& s = Local();
  s.sampled = sample_every_ <= 1 || txn_counter_.fetch_add(1) % sample_every_ == 0;
  s.txn = Tracer::NextId(s);
  s.open = s.txn;
  s.txn_start_ns = NowNs();
}

void Tracer::EndTxn() {
  Slot& s = Local();
  const std::int64_t end = NowNs();
  const auto k = static_cast<std::size_t>(Kind::kTxn);
  ++s.log.count[k];
  s.log.total_ns[k] += end - s.txn_start_ns;
  if (s.sampled) {
    s.log.spans.push_back(Span{s.txn, 0, s.txn,
                                static_cast<std::uint32_t>(Kind::kTxn),
                                s.txn_start_ns, end});
  }
  s.open = 0;
  s.txn = 0;
  s.sampled = true;
}

void Tracer::AddWalBytes(std::uint64_t bytes) { Local().log.wal_bytes += bytes; }

std::vector<const ThreadLog*> Tracer::logs() const {
  std::vector<const ThreadLog*> out;
  for (const Slot* slot : slots_.All()) out.push_back(&slot->log);
  return out;
}

std::vector<Span> Tracer::spans() const {
  std::vector<Span> out;
  for (const ThreadLog* log : logs()) {
    out.insert(out.end(), log->spans.begin(), log->spans.end());
  }
  return out;
}

bool Tracer::WriteSpans(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fprintf(file, "id\tparent\ttxn\tkind\tstart_ns\tend_ns\n");
  for (const ThreadLog* log : logs()) {
    for (const Span& span : log->spans) {
      std::fprintf(file, "%llu\t%llu\t%llu\t%s\t%lld\t%lld\n",
                   static_cast<unsigned long long>(span.id),
                   static_cast<unsigned long long>(span.parent),
                   static_cast<unsigned long long>(span.txn),
                   KindName(static_cast<Kind>(span.kind)),
                   static_cast<long long>(span.start_ns),
                   static_cast<long long>(span.end_ns));
    }
  }
  return std::fclose(file) == 0;
}

SpanScope::SpanScope(Tracer& tracer, Kind kind, std::uint64_t txn)
    : tracer_(tracer), kind_(kind) {
  Tracer::Slot& s = tracer_.Local();
  parent_ = s.open;
  id_ = Tracer::NextId(s);
  s.open = id_;
  txn_ = s.txn != 0 ? s.txn : txn;
  start_ns_ = NowNs();
}

SpanScope::~SpanScope() {
  const std::int64_t end = NowNs();
  Tracer::Slot& s = tracer_.Local();
  s.open = parent_;
  const auto k = static_cast<std::size_t>(kind_);
  ++s.log.count[k];
  s.log.total_ns[k] += end - start_ns_;
  if (s.sampled) {
    s.log.spans.push_back(Span{id_, parent_, txn_,
                                static_cast<std::uint32_t>(kind_), start_ns_,
                                end});
  }
}

TracedController::TracedController(hdd::HddController* inner,
                                   Tracer* tracer)
    : ConcurrencyController(&inner->db(), &inner->clock()),
      inner_(inner),
      tracer_(tracer) {
  for (hdd::SegmentId s = 0; s < inner->db().num_segments(); ++s) {
    class_of_segment_.push_back(inner->ClassOfSegment(s));
  }
}

hdd::Result<hdd::TxnDescriptor> TracedController::Begin(
    const hdd::TxnOptions& options) {
  SpanScope span(*tracer_, Kind::kBegin);
  return inner_->Begin(options);
}

hdd::Result<hdd::Value> TracedController::Read(const hdd::TxnDescriptor& txn,
                                               hdd::GranuleRef granule) {
  Kind kind = Kind::kReadC;
  if (!txn.read_only) {
    kind = class_of_segment_[granule.segment] == txn.txn_class ? Kind::kReadB
                                                                : Kind::kReadA;
  }
  SpanScope span(*tracer_, kind, txn.id);
  return inner_->Read(txn, granule);
}

hdd::Status TracedController::Write(const hdd::TxnDescriptor& txn,
                                    hdd::GranuleRef granule,
                                    hdd::Value value) {
  SpanScope span(*tracer_, Kind::kWrite, txn.id);
  return inner_->Write(txn, granule, value);
}

hdd::Status TracedController::Commit(const hdd::TxnDescriptor& txn) {
  SpanScope span(*tracer_, Kind::kCommit, txn.id);
  return inner_->Commit(txn);
}

hdd::Status TracedController::Abort(const hdd::TxnDescriptor& txn) {
  SpanScope span(*tracer_, Kind::kAbort, txn.id);
  return inner_->Abort(txn);
}

hdd::Status TracedWalStorage::Append(const std::string& name,
                                     std::string_view data) {
  SpanScope span(*tracer_, Kind::kWalAppend);
  tracer_->AddWalBytes(data.size());
  return inner_->Append(name, data);
}

hdd::Status TracedWalStorage::Sync(const std::string& name) {
  SpanScope span(*tracer_, Kind::kWalSync);
  return inner_->Sync(name);
}

}  // namespace hddbench
