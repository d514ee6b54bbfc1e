#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "checks.h"
#include "engine/executor.h"
#include "engine/synthetic_workload.h"
#include "graph/dhg.h"
#include "hdd/hdd_controller.h"
#include "obs/metrics_registry.h"
#include "stats.h"
#include "tracing.h"
#include "wal/wal_manager.h"
#include "wal/wal_storage.h"

namespace hddbench {

namespace {

// Thread budget: the host this benchmark was sized on has 4 hardware
// threads, and each workload runs 3 closed-loop workers, keeping one free
// for the host's own work (README.md).
constexpr int kWorkers = 3;

// Set-up is timed in kSetupGroups groups of a workload's `setup_batch`
// set-ups each, and the median group time per set-up reported. A group
// lasts 5-90 ms, far above the clock's grain, so neither one slow
// allocation nor a short host stall decides the figure.
constexpr int kSetupGroups = 15;
// Warm-up before the measured window (fills caches, lets GC reach its
// steady cycle), in seconds at the workload's nominal rate.
constexpr double kWarmupSeconds = 1.0;
// Granules inspected (chosen at random) each time versions per granule is
// sampled. ExportVersions latches each granule's class shard, so the
// sample is race-free alongside running transactions.
constexpr int kVersionSample = 1024;
// The traced phase keeps spans for about this many transactions.
constexpr std::uint64_t kTracedTxnBudget = 15000;
// Serializability pass: untimed, recorder on.
constexpr std::uint64_t kSerializabilityPrograms = 3000;

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// A traced run measures twice, plain then traced, in the time a plain run
// measures once.
double PhaseSeconds(const RunConfig& config) {
  return config.trace ? config.seconds / 2 : config.seconds;
}

// Mean throughput of the last third of the windows over the first third's.
double LastThirdRatio(const std::vector<double>& window_tput) {
  const std::size_t third = window_tput.size() / 3;
  double first = 0.0;
  double last = 0.0;
  for (std::size_t w = 0; w < third; ++w) {
    first += window_tput[w];
    last += window_tput[window_tput.size() - 1 - w];
  }
  return Ratio(last, first);
}

// Appends metrics to a RunOutput, enforcing the percentile support rule.
class Reporter {
 public:
  explicit Reporter(RunOutput* out) : out_(out) {}

  void Add(const std::string& name, double value, const std::string& unit) {
    out_->metrics.push_back(Metric{name, value, unit, 0});
  }

  // A percentile of a layer that did no work on this workload reads 0
  // when `idle_ok`; one with too few samples beyond it fails the run.
  void AddQuantile(const std::string& name, const std::optional<double>& value,
                   std::uint64_t samples, bool idle_ok = false) {
    if (samples == 0 && idle_ok) {
      out_->metrics.push_back(Metric{name, 0.0, "us", 0});
      return;
    }
    if (!value.has_value()) {
      if (out_->error.empty()) {
        out_->error = name + ": " + std::to_string(samples) +
                      " samples leave fewer than " +
                      std::to_string(kMinBeyond) +
                      " beyond the percentile; run longer";
      }
      return;
    }
    out_->metrics.push_back(Metric{name, *value, "us", samples});
  }

  void AddQuantile(const std::string& name, const std::vector<double>& samples,
                   double q, bool idle_ok = true) {
    AddQuantile(name, Quantile(samples, q), samples.size(), idle_ok);
  }

  // An end-to-end percentile: median over window groups.
  void AddWindowedQuantile(
      const std::string& name,
      const std::vector<std::vector<const Reservoir*>>& windows, double q) {
    const WindowedQuantile result = MedianOverWindows(windows, q);
    AddQuantile(name, result.value, result.samples);
  }

 private:
  RunOutput* out_;
};

void Fail(RunOutput* out, const std::string& what, const hdd::Status& status) {
  out->correct = false;
  if (out->failure.empty()) out->failure = what + ": " + status.ToString();
}

// ---------------------------------------------------------------------------
// Per-layer metrics.
// ---------------------------------------------------------------------------

struct LayerFacts {
  double seconds = 0.0;
  int threads = 0;  // threads running controller calls
  std::uint64_t commits = 0;
  std::uint64_t blocked = 0;  // controller's blocked reads + writes
  std::uint64_t history_records = 0;
  std::uint64_t versions_end = 0;
  std::uint64_t pruned = 0;
  double tput_last_third_ratio = 0.0;
  double overhead_frac = 0.0;
  std::uint64_t wal_batches = 0;
  double wal_batch_mean = 0.0;
  double recover_s = 0.0;
};

void ReportLayers(Reporter& rep, const Tracer& tracer, const LayerFacts& f) {
  std::array<std::uint64_t, kNumKinds> count{};
  std::array<double, kNumKinds> total_ns{};
  std::uint64_t wal_bytes = 0;
  for (const ThreadLog* log : tracer.logs()) {
    for (std::size_t k = 0; k < kNumKinds; ++k) {
      count[k] += log->count[k];
      total_ns[k] += static_cast<double>(log->total_ns[k]);
    }
    wal_bytes += log->wal_bytes;
  }
  const auto n = [&](Kind k) {
    return static_cast<double>(count[static_cast<std::size_t>(k)]);
  };
  const auto ns = [&](Kind k) { return total_ns[static_cast<std::size_t>(k)]; };

  // Self time of every kept span, grouped by layer boundary.
  const std::vector<Span> spans = tracer.spans();
  const std::vector<std::int64_t> self = SelfTimes(spans);
  std::array<std::vector<double>, kNumKinds> self_us;
  std::array<double, kNumKinds> max_us{};
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double us = static_cast<double>(self[i]) / 1e3;
    self_us[spans[i].kind].push_back(us);
    max_us[spans[i].kind] = std::max(max_us[spans[i].kind], us);
  }
  const auto& of = [&](Kind k) -> const std::vector<double>& {
    return self_us[static_cast<std::size_t>(k)];
  };
  const double commits = static_cast<double>(f.commits);
  const double thread_ns = f.seconds * 1e9 * f.threads;
  double controller_ns = 0.0;
  for (Kind k : {Kind::kBegin, Kind::kReadA, Kind::kReadB, Kind::kReadC,
                 Kind::kWrite, Kind::kCommit, Kind::kAbort}) {
    controller_ns += ns(k);
  }
  // Every WAL call a running workload makes happens inside a controller
  // call, so the controller's self time is its total minus the WAL's.
  const double wal_ns = ns(Kind::kWalAppend) + ns(Kind::kWalSync);

  rep.AddQuantile("hdd.read_a_us_p50", of(Kind::kReadA), 0.50);
  rep.AddQuantile("hdd.read_a_us_p99", of(Kind::kReadA), 0.99);
  rep.Add("hdd.read_a_per_commit", Ratio(n(Kind::kReadA), commits), "1/commit");
  rep.AddQuantile("hdd.read_b_us_p50", of(Kind::kReadB), 0.50);
  rep.AddQuantile("hdd.write_us_p50", of(Kind::kWrite), 0.50);
  rep.AddQuantile("hdd.write_us_p99", of(Kind::kWrite), 0.99);
  rep.Add("hdd.aborts_per_commit", Ratio(n(Kind::kAbort), commits), "1/commit");
  rep.Add("hdd.blocked_per_commit",
          Ratio(static_cast<double>(f.blocked), commits), "1/commit");
  rep.AddQuantile("hdd.read_c_us_p50", of(Kind::kReadC), 0.50);
  rep.AddQuantile("hdd.read_c_us_p99", of(Kind::kReadC), 0.99);
  rep.AddQuantile("hdd.wall_release_us_p50", of(Kind::kWallRelease), 0.50);
  rep.Add("hdd.wall_release_us_max", max_us[static_cast<std::size_t>(Kind::kWallRelease)], "us");
  rep.AddQuantile("hdd.begin_us_p50", of(Kind::kBegin), 0.50);
  rep.AddQuantile("hdd.begin_us_p99", of(Kind::kBegin), 0.99);
  rep.AddQuantile("hdd.commit_us_p50", of(Kind::kCommit), 0.50);
  rep.AddQuantile("hdd.commit_us_p99", of(Kind::kCommit), 0.99);
  rep.Add("hdd.busy_frac", Ratio(controller_ns - wal_ns, thread_ns), "frac");
  rep.Add("hdd.history_records", static_cast<double>(f.history_records), "count");

  rep.Add("engine.attempts_per_commit", Ratio(n(Kind::kBegin), commits), "1/commit");
  // Share of transaction latency spent inside controller calls.
  rep.Add("engine.cc_frac", Ratio(controller_ns, ns(Kind::kTxn)), "frac");
  rep.Add("engine.tput_last_third_ratio", f.tput_last_third_ratio, "ratio");

  rep.AddQuantile("gc.pass_us_p50", of(Kind::kGcPass), 0.50);
  rep.Add("gc.pass_us_max", max_us[static_cast<std::size_t>(Kind::kGcPass)], "us");
  rep.Add("gc.busy_frac", Ratio(ns(Kind::kGcPass), thread_ns), "frac");
  // The wait for in-flight read-only programs before each pass (see
  // DrainReadOnly); the workers that wait are counted in txn latency.
  rep.AddQuantile("gc.drain_us_p50", of(Kind::kGcDrain), 0.50);
  rep.Add("gc.drain_us_max", max_us[static_cast<std::size_t>(Kind::kGcDrain)], "us");
  rep.Add("gc.pruned_per_commit", Ratio(static_cast<double>(f.pruned), commits),
          "1/commit");
  rep.Add("storage.versions_end", static_cast<double>(f.versions_end), "count");

  rep.AddQuantile("wal.append_us_p50", of(Kind::kWalAppend), 0.50);
  rep.AddQuantile("wal.append_us_p99", of(Kind::kWalAppend), 0.99);
  rep.Add("wal.appends_per_commit", Ratio(n(Kind::kWalAppend), commits), "1/commit");
  rep.Add("wal.bytes_per_commit", Ratio(static_cast<double>(wal_bytes), commits),
          "B/commit");
  rep.AddQuantile("wal.sync_us_p50", of(Kind::kWalSync), 0.50);
  rep.AddQuantile("wal.sync_us_p99", of(Kind::kWalSync), 0.99);
  rep.Add("wal.syncs_per_commit", Ratio(n(Kind::kWalSync), commits), "1/commit");
  rep.Add("wal.batch_mean", f.wal_batch_mean, "commits");
  rep.Add("wal.files_per_batch",
          Ratio(n(Kind::kWalSync), static_cast<double>(f.wal_batches)), "files");
  rep.Add("wal.sync_busy_frac", Ratio(ns(Kind::kWalSync), f.seconds * 1e9), "frac");
  rep.Add("wal.recover_s", f.recover_s, "s");
  rep.Add("trace.overhead_frac", f.overhead_frac, "frac");
}

// ---------------------------------------------------------------------------
// The workloads: cross_read and durable_write, both in process.
// ---------------------------------------------------------------------------

struct InProcessSpec {
  hdd::SyntheticWorkloadParams params;
  bool wal = false;
  /// §7.3 GC runs every this many finished programs.
  std::uint64_t gc_every = 0;
  /// Programs per second that size the warm-up and the measured run, near
  /// what the library sustained on the 4-thread host when this benchmark
  /// was defined (README.md).
  double nominal_rate = 0.0;
  /// Set-ups per timed group (see kSetupGroups).
  int setup_batch = 1;
};

InProcessSpec CrossReadSpec() {
  InProcessSpec spec;
  spec.params.depth = 8;
  spec.params.granules_per_segment = 1024;
  spec.params.upper_reads = 4;
  spec.params.own_reads = 1;
  spec.params.own_writes = 1;
  spec.params.read_only_fraction = 0.05;
  spec.params.granule_skew = 0.0;
  // Every pass latches each segment in turn, so read-only programs (which
  // read every segment) may wait for one. Every 1000 programs, that wait
  // set the read-only tail's knee just below p99, so ro_p99_us moved with
  // any change in the share that waited; every 4000 the knee sits above
  // p99 (README.md).
  spec.gc_every = 4000;
  spec.nominal_rate = 75000;
  spec.setup_batch = 200;
  return spec;
}

InProcessSpec DurableWriteSpec() {
  InProcessSpec spec;
  spec.params.depth = 4;
  spec.params.granules_per_segment = 65536;
  spec.params.upper_reads = 1;
  spec.params.own_reads = 1;
  spec.params.own_writes = 4;
  // A small read-only share, so the durable read-only path (read bound
  // logged, then a wait for the log to be stable) has a latency figure.
  spec.params.read_only_fraction = 0.05;
  spec.params.granule_skew = 0.9;
  spec.wal = true;
  // A pass walks 262144 granules (~19 ms), so passes are further apart.
  spec.gc_every = 8000;
  spec.nominal_rate = 30000;
  spec.setup_batch = 4;
  return spec;
}

// The log's bytes in memory. Each file is a list of fixed-size chunks, so
// growth never copies what is already written: a growing std::string (as
// in SimWalStorage) copies tens of megabytes under the storage's lock now
// and then, stalling every commit. A chunk is one large allocation whose
// pages become resident only as they are written, so Bytes() is what the
// log adds to the resident set, give or take a page per file. With no
// device behind it, Sync has nothing to flush.
class MemoryLogStorage : public hdd::WalStorage {
 public:
  hdd::Result<std::string> Read(const std::string& name) override {
    std::lock_guard<std::mutex> lock(mu_);
    std::string out;
    const auto it = files_.find(name);
    if (it == files_.end()) return out;
    out.reserve(it->second.size);
    for (const std::string& chunk : it->second.chunks) out += chunk;
    return out;
  }
  hdd::Result<std::uint64_t> Size(const std::string& name) override {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = files_.find(name);
    return it == files_.end() ? 0 : it->second.size;
  }
  hdd::Status Append(const std::string& name, std::string_view data) override {
    std::lock_guard<std::mutex> lock(mu_);
    File& file = files_[name];
    while (!data.empty()) {
      if (file.chunks.empty() || file.chunks.back().size() == kChunk) {
        file.chunks.emplace_back().reserve(kChunk);
      }
      std::string& chunk = file.chunks.back();
      const std::size_t n = std::min(data.size(), kChunk - chunk.size());
      chunk.append(data.substr(0, n));
      data.remove_prefix(n);
      file.size += n;
      bytes_ += n;
    }
    return hdd::Status::OK();
  }
  hdd::Status Sync(const std::string&) override { return hdd::Status::OK(); }
  hdd::Status Truncate(const std::string& name, std::uint64_t size) override {
    std::lock_guard<std::mutex> lock(mu_);
    File& file = files_[name];
    while (file.size > size) {
      std::string& chunk = file.chunks.back();
      const std::size_t n =
          std::min<std::uint64_t>(chunk.size(), file.size - size);
      chunk.resize(chunk.size() - n);
      if (chunk.empty()) file.chunks.pop_back();
      file.size -= n;
      bytes_ -= n;
    }
    return hdd::Status::OK();
  }

  /// Bytes held across all files.
  std::uint64_t Bytes() {
    std::lock_guard<std::mutex> lock(mu_);
    return bytes_;
  }

 private:
  static constexpr std::size_t kChunk = 1 << 20;
  struct File {
    std::vector<std::string> chunks;
    std::uint64_t size = 0;
  };
  std::mutex mu_;
  std::map<std::string, File> files_;
  std::uint64_t bytes_ = 0;
};

struct World {
  explicit World(const hdd::SyntheticWorkloadParams& params)
      : workload(params) {}
  World(const World&) = delete;
  World& operator=(const World&) = delete;
  ~World() { CloseLog(); }

  hdd::ConcurrencyController& controller() {
    return traced_cc ? static_cast<hdd::ConcurrencyController&>(*traced_cc)
                     : *cc;
  }

  // Drops the controller and closes the log so it can be recovered from;
  // the database and the log's bytes stay.
  void CloseLog() {
    traced_cc.reset();
    cc.reset();
    if (db) db->AttachWal(nullptr);
    wal.reset();
    traced_storage.reset();
  }

  hdd::SyntheticWorkload workload;
  std::optional<hdd::HierarchySchema> schema;
  std::unique_ptr<hdd::Database> db;
  hdd::LogicalClock clock;
  std::unique_ptr<MemoryLogStorage> log_storage;
  std::unique_ptr<TracedWalStorage> traced_storage;
  std::unique_ptr<hdd::WalManager> wal;
  std::unique_ptr<hdd::HddController> cc;
  std::unique_ptr<TracedController> traced_cc;
};

// Builds the database and controller (and opens a fresh log). With a
// tracer the controller and log storage are wrapped in the timing
// decorators.
hdd::Result<std::unique_ptr<World>> BuildWorld(const InProcessSpec& spec,
                                               Tracer* tracer) {
  auto world = std::make_unique<World>(spec.params);
  hdd::Result<hdd::HierarchySchema> schema =
      hdd::HierarchySchema::Create(world->workload.Spec());
  if (!schema.ok()) return schema.status();
  world->schema.emplace(std::move(schema).value());
  world->db = world->workload.MakeDatabase();
  if (spec.wal) {
    // The log lives in memory: on the host this benchmark was sized on,
    // both fdatasync and page-cache writeback to the shared disk swung
    // throughput 2-3x between back-to-back runs (README.md), which no run
    // length averages out.
    world->log_storage = std::make_unique<MemoryLogStorage>();
    hdd::WalStorage* storage = world->log_storage.get();
    if (tracer != nullptr) {
      world->traced_storage =
          std::make_unique<TracedWalStorage>(storage, tracer);
      storage = world->traced_storage.get();
    }
    // Group commit with no pile-in pause: the leader syncs at once, and
    // the commits that arrive while it syncs form the next batch. With no
    // device to amortise, the default 100 us pause only measured how late
    // the host woke the sleeping leader (README.md).
    hdd::WalOptions wal_options;
    wal_options.group.flush_interval = std::chrono::microseconds(0);
    hdd::Result<std::unique_ptr<hdd::WalManager>> wal =
        hdd::WalManager::Open(storage, world->db->num_segments(), wal_options);
    if (!wal.ok()) return wal.status();
    world->wal = std::move(wal).value();
    world->db->AttachWal(world->wal.get());
  }
  world->cc = std::make_unique<hdd::HddController>(
      world->db.get(), &world->clock, &*world->schema);
  world->cc->recorder().set_enabled(false);
  if (tracer != nullptr) {
    world->traced_cc = std::make_unique<TracedController>(world->cc.get(), tracer);
  }
  return world;
}

// Latency reservoirs per window stay small so memory (and so peak RSS)
// does not depend on how fast a run goes. Three workers' reservoirs give a
// window 1536 update samples, enough for its p99.
constexpr std::size_t kWindowReservoir = 512;

struct WorkerSlot {
  WorkerSlot() {
    for (std::size_t w = 0; w < kWindows; ++w) {
      update_us.emplace_back(kWindowReservoir, 2 * w + 1);
      read_only_us.emplace_back(kWindowReservoir, 2 * w + 2);
    }
  }
  std::vector<Reservoir> update_us;  // per window
  std::vector<Reservoir> read_only_us;
  std::array<std::uint64_t, kWindows> committed{};
  std::uint64_t failed = 0;
  std::int64_t start_ns = 0;
  bool read_only = false;
  // The program just finished, booked into its window by on_txn_done.
  bool done_committed = false;
  double done_us = 0.0;
};

// Everything one RunWorkload call observes. Its `programs` programs are
// cut into kWindows windows of equal program count, by completion order.
struct PhaseState {
  PhaseState(std::uint64_t seed, std::uint64_t programs)
      : programs(programs), sample_rng(seed) {}
  const std::uint64_t programs;
  PerThread<WorkerSlot> workers;
  std::int64_t start_ns = 0;
  std::uint64_t start_steal = 0;
  std::array<std::atomic<std::int64_t>, kWindows> window_end_ns{};
  std::array<std::atomic<std::uint64_t>, kWindows> window_end_steal{};
  // Read-only programs between Make and completion (see GcPass).
  std::atomic<int> read_only_inflight{0};
  std::mutex gc_mu;  // one GC pass at a time
  std::mutex mu;  // guards the members below
  std::vector<double> versions_per_granule;
  hdd::Rng sample_rng;
  std::atomic<std::uint64_t> pruned{0};
};

// The workload as the executor sees it, stamping each program's start
// (and, traced, opening its transaction span) just before the executor
// runs it on the same thread.
class TimedWorkload : public hdd::Workload {
 public:
  TimedWorkload(const hdd::Workload& inner, PhaseState* state, Tracer* tracer)
      : inner_(inner), state_(state), tracer_(tracer) {}

  hdd::TxnProgram Make(std::uint64_t index, hdd::Rng& rng) const override {
    hdd::TxnProgram program = inner_.Make(index, rng);
    WorkerSlot& slot = state_->workers.Local();
    slot.read_only = program.options.read_only;
    if (slot.read_only) state_->read_only_inflight.fetch_add(1);
    if (tracer_ != nullptr) tracer_->BeginTxn();
    slot.start_ns = NowNs();
    return program;
  }

 private:
  const hdd::Workload& inner_;
  PhaseState* state_;
  Tracer* tracer_;
};

void SampleVersions(World& world, PhaseState& state) {
  const auto& params = world.workload.params();
  std::vector<std::pair<int, std::uint32_t>> picks;
  {
    std::lock_guard<std::mutex> lock(state.mu);
    for (int i = 0; i < kVersionSample; ++i) {
      const auto segment = static_cast<int>(
          state.sample_rng.NextBounded(static_cast<std::uint64_t>(params.depth)));
      const auto granule = static_cast<std::uint32_t>(
          state.sample_rng.NextBounded(params.granules_per_segment));
      picks.emplace_back(segment, granule);
    }
  }
  std::uint64_t versions = 0;
  for (const auto& [segment, granule] : picks) {
    hdd::Result<std::vector<hdd::Version>> chain =
        world.cc->ExportVersions(segment, granule);
    if (chain.ok()) versions += chain->size();
  }
  std::lock_guard<std::mutex> lock(state.mu);
  state.versions_per_granule.push_back(static_cast<double>(versions) /
                                       kVersionSample);
}

// Waits for an instant with no read-only program in flight.
//
// Works around a defect in HddController (left for a later change, since
// this benchmark changes no library code): the GC horizon protects the
// newest wall and the pinned ones, but a read-only transaction pins its
// wall only at its first read, choosing the newest wall released before
// its Begin. One that began before a ReleaseNewWall and reads after it
// pins an older wall the horizon no longer covers, and CollectGarbage can
// prune the version it must read: ReadUnderWall then dereferences a null
// version (hdd_controller.cc, `assert(version != nullptr)`). Seen as a
// segfault in 2 of 6 back-to-back cross_read runs. Draining read-only
// programs after the release closes that window; every later one pins
// the new wall.
void DrainReadOnly(const PhaseState& state) {
  while (state.read_only_inflight.load() != 0) std::this_thread::yield();
}

// One §7.3 pass as the library's examples run it: sample chain lengths,
// release a fresh wall (unpinning old ones), then collect.
void GcPass(World& world, PhaseState& state, Tracer* tracer) {
  std::lock_guard<std::mutex> one_pass(state.gc_mu);
  SampleVersions(world, state);
  std::size_t pruned = 0;
  if (tracer == nullptr) {
    (void)world.cc->ReleaseNewWall();
    DrainReadOnly(state);
    pruned = world.cc->CollectGarbage();
  } else {
    {
      SpanScope span(*tracer, Kind::kWallRelease);
      (void)world.cc->ReleaseNewWall();
    }
    {
      SpanScope span(*tracer, Kind::kGcDrain);
      DrainReadOnly(state);
    }
    SpanScope span(*tracer, Kind::kGcPass);
    pruned = world.cc->CollectGarbage();
  }
  state.pruned.fetch_add(pruned);
}

// Runs state.programs programs through RunWorkload with kWorkers closed-loop
// workers; returns the elapsed seconds.
double RunChunk(World& world, const InProcessSpec& spec, PhaseState& state,
                Tracer* tracer, std::uint64_t seed) {
  TimedWorkload workload(world.workload, &state, tracer);
  hdd::ExecutorOptions options;
  options.num_threads = kWorkers;
  options.seed = seed;
  options.on_program_done = [&](std::uint64_t,
                                const hdd::ProgramResult& result) {
    const std::int64_t end = NowNs();
    WorkerSlot& slot = state.workers.Local();
    if (tracer != nullptr) tracer->EndTxn();
    if (slot.read_only) state.read_only_inflight.fetch_sub(1);
    slot.done_committed = result.committed;
    slot.done_us = static_cast<double>(end - slot.start_ns) / 1e3;
  };
  // Runs right after on_program_done on the same thread, with the
  // program's completion rank, which names its window.
  options.on_txn_done = [&](std::uint64_t done) {
    const std::size_t w = (done - 1) * kWindows / state.programs;
    WorkerSlot& slot = state.workers.Local();
    if (slot.done_committed) {
      ++slot.committed[w];
      (slot.read_only ? slot.read_only_us : slot.update_us)[w].Add(slot.done_us);
    } else {
      ++slot.failed;
    }
    if (done == (w + 1) * state.programs / kWindows) {
      state.window_end_ns[w].store(NowNs());
      state.window_end_steal[w].store(StealTicks());
    }
    if (spec.gc_every != 0 && done % spec.gc_every == 0) {
      GcPass(world, state, tracer);
    }
  };
  state.start_steal = StealTicks();
  state.start_ns = NowNs();
  (void)hdd::RunWorkload(world.controller(), workload, state.programs, options);
  return static_cast<double>(NowNs() - state.start_ns) / 1e9;
}

struct PhaseOutcome {
  std::unique_ptr<PhaseState> state;
  double seconds = 0.0;
  std::uint64_t committed = 0;
  std::uint64_t failed = 0;
  std::uint64_t blocked = 0;
  std::uint64_t wal_batches = 0;
  double wal_batch_mean = 0.0;
  // Committed programs per second in each window.
  std::vector<double> window_tput;
  // The windows end-to-end figures come from (QuietWindows).
  std::vector<std::size_t> quiet;
};

// Steal in each window, from the counter read at its start and ends.
std::vector<std::uint64_t> WindowSteal(std::uint64_t start,
                                       const std::array<std::uint64_t, kWindows>& ends) {
  std::vector<std::uint64_t> steal;
  for (std::uint64_t end : ends) {
    steal.push_back(end - std::min(start, end));
    start = end;
  }
  return steal;
}

std::uint64_t Blocked(const hdd::HddController& cc) {
  return cc.metrics().blocked_reads.load() + cc.metrics().blocked_writes.load();
}

// Warms up for about kWarmupSeconds, then measures one RunWorkload call
// of about `seconds`. Both are sized by the workload's nominal rate, not a
// measured one, so a run's work (and the log it leaves) depends on the
// seed alone; a faster program finishes sooner.
PhaseOutcome RunPhase(World& world, const InProcessSpec& spec, double seconds,
                      std::uint64_t seed, Tracer* tracer) {
  // Program counts are whole multiples of the window count.
  const auto sized = [&](double seconds_at_nominal) {
    return static_cast<std::uint64_t>(spec.nominal_rate * seconds_at_nominal /
                                      kWindows) *
           kWindows;
  };
  PhaseState warm(seed, sized(kWarmupSeconds));
  RunChunk(world, spec, warm, tracer, seed * 16 + 2);
  if (tracer != nullptr) tracer->Reset();

  PhaseOutcome out;
  out.state = std::make_unique<PhaseState>(seed, sized(seconds));
  const std::uint64_t blocked_before = Blocked(*world.cc);
  hdd::Histogram::Snapshot batches_before;
  if (world.wal) batches_before = world.wal->metrics().batch_size.snapshot();
  out.seconds = RunChunk(world, spec, *out.state, tracer, seed * 16 + 3);
  std::array<std::uint64_t, kWindows> committed{};
  for (const WorkerSlot* slot : out.state->workers.All()) {
    for (std::size_t w = 0; w < kWindows; ++w) committed[w] += slot->committed[w];
    out.failed += slot->failed;
  }
  std::int64_t window_start = out.state->start_ns;
  std::array<std::uint64_t, kWindows> end_steal{};
  for (std::size_t w = 0; w < kWindows; ++w) {
    out.committed += committed[w];
    const std::int64_t window_end = out.state->window_end_ns[w].load();
    out.window_tput.push_back(Ratio(static_cast<double>(committed[w]) * 1e9,
                                    static_cast<double>(window_end - window_start)));
    window_start = window_end;
    end_steal[w] = out.state->window_end_steal[w].load();
  }
  out.quiet = QuietWindows(WindowSteal(out.state->start_steal, end_steal));
  out.blocked = Blocked(*world.cc) - blocked_before;
  if (world.wal) {
    const hdd::Histogram::Snapshot after = world.wal->metrics().batch_size.snapshot();
    out.wal_batches = after.count - batches_before.count;
    out.wal_batch_mean = Ratio(static_cast<double>(after.sum - batches_before.sum),
                               static_cast<double>(out.wal_batches));
  }
  return out;
}

std::vector<std::vector<const Reservoir*>> Latencies(const PhaseState& state,
                                                     bool read_only) {
  std::vector<std::vector<const Reservoir*>> windows(kWindows);
  for (const WorkerSlot* slot : state.workers.All()) {
    for (std::size_t w = 0; w < kWindows; ++w) {
      windows[w].push_back(read_only ? &slot->read_only_us[w]
                                     : &slot->update_us[w]);
    }
  }
  return windows;
}

// Closes the world's log and recovers it into a fresh database.
hdd::Status RecoverAndCompare(World& world, double* recover_s) {
  world.CloseLog();
  return CheckRecovery(world.log_storage.get(), *world.db, recover_s);
}

// A short untimed pass on a fresh world with the schedule recorder on.
hdd::Status SerializabilityPass(const InProcessSpec& spec, std::uint64_t seed) {
  hdd::Result<std::unique_ptr<World>> built = BuildWorld(spec, nullptr);
  if (!built.ok()) return built.status();
  World& world = **built;
  world.cc->recorder().set_enabled(true);
  InProcessSpec checked = spec;
  // Collect often enough that GC passes interleave with the recorded
  // history.
  checked.gc_every = std::max<std::uint64_t>(1, kSerializabilityPrograms / 10);
  PhaseState state(seed, kSerializabilityPrograms);
  RunChunk(world, checked, state, nullptr, seed * 16 + 5);
  return CheckSerializable(world.cc->recorder());
}

// Times kSetupGroups groups of `batch` calls of `build` (each replacing
// *world, the old one torn down first and untimed) and returns the median
// seconds per set-up, or an error.
template <typename T, typename Build>
hdd::Result<double> TimeSetup(int batch, std::unique_ptr<T>* world,
                              Build build) {
  std::vector<double> per_setup_s;
  for (int g = 0; g < kSetupGroups; ++g) {
    std::int64_t group_ns = 0;
    for (int i = 0; i < batch; ++i) {
      world->reset();
      const std::int64_t t0 = NowNs();
      hdd::Result<std::unique_ptr<T>> built = build();
      group_ns += NowNs() - t0;
      if (!built.ok()) return built.status();
      *world = std::move(built).value();
    }
    per_setup_s.push_back(static_cast<double>(group_ns) / 1e9 / batch);
  }
  return Median(per_setup_s);
}

RunOutput RunInProcess(const RunConfig& config, const InProcessSpec& spec) {
  RunOutput out;
  Reporter rep(&out);

  std::unique_ptr<World> world;
  const hdd::Result<double> setup_s = TimeSetup(
      spec.setup_batch, &world, [&] { return BuildWorld(spec, nullptr); });
  if (!setup_s.ok()) {
    out.error = "setup: " + setup_s.status().ToString();
    return out;
  }

  const PhaseOutcome plain =
      RunPhase(*world, spec, PhaseSeconds(config), config.seed, nullptr);
  // The program's peak, less the in-memory log that stands in for the
  // log device (it is at its largest now, at the end of the run).
  const double log_mb =
      world->log_storage
          ? static_cast<double>(world->log_storage->Bytes()) / (1 << 20)
          : 0.0;
  const double peak_rss_mb = PeakRssMb() - log_mb;
  double recover_s = 0.0;
  if (spec.wal) {
    const hdd::Status status = RecoverAndCompare(*world, &recover_s);
    if (!status.ok()) Fail(&out, "recovery", status);
  }
  world.reset();

  if (!config.trace) {
    out.attempted = plain.committed + plain.failed;
    out.failed = plain.failed;
    rep.Add("setup_s", *setup_s, "s");
    const auto& quiet = plain.quiet;
    rep.Add("txn_per_s", Median(Pick(plain.window_tput, quiet)), "1/s");
    const auto update_us = Pick(Latencies(*plain.state, false), quiet);
    const auto read_only_us = Pick(Latencies(*plain.state, true), quiet);
    rep.AddWindowedQuantile("commit_p50_us", update_us, 0.50);
    rep.AddWindowedQuantile("commit_p99_us", update_us, 0.99);
    rep.AddWindowedQuantile("ro_p50_us", read_only_us, 0.50);
    rep.AddWindowedQuantile("ro_p99_us", read_only_us, 0.99);
    rep.Add("peak_rss_mb", peak_rss_mb, "MB");
    const std::vector<double>& samples = plain.state->versions_per_granule;
    if (samples.empty()) {
      out.error = "versions_per_granule: no GC pass ran; run longer";
    } else {
      double sum = 0.0;
      for (double v : samples) sum += v;
      rep.Add("versions_per_granule", sum / static_cast<double>(samples.size()),
              "versions");
    }
  } else {
    Tracer tracer(std::max<std::uint64_t>(1, plain.committed / kTracedTxnBudget));
    hdd::Result<std::unique_ptr<World>> built = BuildWorld(spec, &tracer);
    if (!built.ok()) {
      out.error = "setup: " + built.status().ToString();
      return out;
    }
    world = std::move(built).value();
    const PhaseOutcome traced =
        RunPhase(*world, spec, PhaseSeconds(config), config.seed, &tracer);
    out.attempted = traced.committed + traced.failed;
    out.failed = traced.failed;

    LayerFacts facts;
    facts.seconds = traced.seconds;
    facts.threads = kWorkers;
    facts.commits = traced.committed;
    facts.blocked = traced.blocked;
    facts.history_records = world->cc->ActivityHistorySize();
    facts.versions_end = world->db->TotalVersions();
    facts.pruned = traced.state->pruned.load();
    facts.tput_last_third_ratio = LastThirdRatio(plain.window_tput);
    facts.overhead_frac =
        1.0 - Ratio(Median(Pick(traced.window_tput, traced.quiet)),
                    Median(Pick(plain.window_tput, plain.quiet)));
    facts.wal_batches = traced.wal_batches;
    facts.wal_batch_mean = traced.wal_batch_mean;
    if (spec.wal) {
      const hdd::Status status = RecoverAndCompare(*world, &facts.recover_s);
      if (!status.ok()) Fail(&out, "recovery (traced run)", status);
    }
    ReportLayers(rep, tracer, facts);
    const std::string path = config.out_dir + "/" + config.workload + ".spans.tsv";
    if (!tracer.WriteSpans(path)) out.error = "cannot write " + path;
    world.reset();
  }

  const hdd::Status serializable =
      SerializabilityPass(spec, config.seed);
  if (!serializable.ok()) Fail(&out, "serializability", serializable);
  return out;
}

}  // namespace

RunOutput RunBenchmark(const RunConfig& config) {
  std::error_code ec;
  std::filesystem::create_directories(config.out_dir, ec);
  if (ec) {
    RunOutput out;
    out.error = "cannot create " + config.out_dir + ": " + ec.message();
    return out;
  }
  if (config.workload == "cross_read") return RunInProcess(config, CrossReadSpec());
  if (config.workload == "durable_write") {
    return RunInProcess(config, DurableWriteSpec());
  }
  RunOutput out;
  out.error = "unknown workload '" + config.workload + "'";
  return out;
}

}  // namespace hddbench
