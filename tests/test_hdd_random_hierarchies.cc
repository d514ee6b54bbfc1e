// Theorem 1 / Theorem 2, stress-tested: on RANDOM transitive-semi-tree
// hierarchies (arbitrary branching, random read sets along critical
// paths), concurrent HDD executions with update, wall-read-only and
// hosted-read-only transactions must always produce acyclic dependency
// graphs — with zero read registration outside root segments. The same
// hierarchies check the per-transaction bound memo: every Protocol A (and
// hosted) read is served at exactly the bound a fresh evaluator walk
// gives, also when a Restructure lands while the transaction is live.

#include <gtest/gtest.h>

#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "engine/executor.h"
#include "hdd/hdd_controller.h"
#include "txn/dependency_graph.h"

namespace hdd {
namespace {

struct RandomHierarchy {
  PartitionSpec spec;
  std::vector<int> parent;                 // tree arcs point child->parent
  std::vector<std::vector<SegmentId>> ancestors;  // per class, bottom-up
};

RandomHierarchy MakeRandomHierarchy(Rng& rng) {
  RandomHierarchy h;
  const int n = static_cast<int>(rng.NextInRange(2, 7));
  h.parent.assign(n, -1);
  h.ancestors.resize(n);
  for (int v = 1; v < n; ++v) {
    h.parent[v] = static_cast<int>(rng.NextBounded(v));
    for (int a = h.parent[v]; a != -1; a = h.parent[a]) {
      h.ancestors[v].push_back(a);
    }
  }
  for (int v = 0; v < n; ++v) {
    h.spec.segment_names.push_back("S" + std::to_string(v));
    TransactionTypeSpec type;
    type.name = "class" + std::to_string(v);
    type.root_segment = v;
    // Random subset of ancestors as declared reads (critical-path reads).
    for (SegmentId a : h.ancestors[v]) {
      if (rng.NextBool(0.7)) type.read_segments.push_back(a);
    }
    h.spec.transaction_types.push_back(type);
  }
  return h;
}

/// Makes every class declare all its ancestors: the hierarchy is then the
/// tree's transitive closure — a TST whatever the tree, and every ancestor
/// lies on a critical path above its descendants.
void DeclareAllAncestors(RandomHierarchy& h) {
  for (std::size_t v = 0; v < h.ancestors.size(); ++v) {
    h.spec.transaction_types[v].read_segments = h.ancestors[v];
  }
}

/// Host segment of every hosted read-only transaction a workload began.
struct HostLog {
  std::mutex mu;
  std::unordered_map<TxnId, SegmentId> host;
};

class RandomHierarchyWorkload : public Workload {
 public:
  RandomHierarchyWorkload(const RandomHierarchy& h,
                          std::uint32_t granules_per_segment,
                          HostLog* hosts = nullptr,
                          const HddController* classes = nullptr)
      : h_(h),
        granules_(granules_per_segment),
        hosts_(hosts),
        classes_(classes) {}

  TxnProgram Make(std::uint64_t, Rng& rng) const override {
    const int n = static_cast<int>(h_.parent.size());
    TxnProgram program;
    const double roll = rng.NextDouble();
    if (roll < 0.10) {
      // Wall read-only: read a few random granules anywhere.
      std::vector<GranuleRef> reads;
      for (int i = 0; i < 4; ++i) {
        reads.push_back({static_cast<SegmentId>(rng.NextBounded(n)),
                         static_cast<std::uint32_t>(
                             rng.NextBounded(granules_))});
      }
      program.options.read_only = true;
      program.body = [reads](ConcurrencyController& cc,
                             const TxnDescriptor& txn) -> Status {
        for (GranuleRef ref : reads) {
          HDD_RETURN_IF_ERROR(cc.Read(txn, ref).status());
        }
        return Status::OK();
      };
      return program;
    }
    if (roll < 0.18) {
      // Hosted read-only: a class plus the segments its class actually
      // declares (and therefore reaches by critical paths in the DHG).
      const int cls = static_cast<int>(rng.NextBounded(n));
      std::vector<SegmentId> scope = {cls};
      for (SegmentId a : h_.spec.transaction_types[cls].read_segments) {
        scope.push_back(a);
      }
      std::vector<GranuleRef> reads;
      for (SegmentId s : scope) {
        reads.push_back({s, static_cast<std::uint32_t>(
                                rng.NextBounded(granules_))});
      }
      program.options.read_only = true;
      program.options.read_scope = scope;
      program.body = [reads, cls, hosts = hosts_](
                         ConcurrencyController& cc,
                         const TxnDescriptor& txn) -> Status {
        if (hosts != nullptr) {
          std::lock_guard<std::mutex> guard(hosts->mu);
          hosts->host[txn.id] = cls;
        }
        for (GranuleRef ref : reads) {
          HDD_RETURN_IF_ERROR(cc.Read(txn, ref).status());
        }
        return Status::OK();
      };
      return program;
    }
    // Update transaction: reads from declared segments, writes own.
    const int cls = static_cast<int>(rng.NextBounded(n));
    const auto& declared = h_.spec.transaction_types[cls].read_segments;
    std::vector<GranuleRef> reads;
    for (SegmentId s : declared) {
      reads.push_back(
          {s, static_cast<std::uint32_t>(rng.NextBounded(granules_))});
    }
    std::vector<GranuleRef> own;
    const int own_ops = static_cast<int>(rng.NextInRange(1, 3));
    for (int i = 0; i < own_ops; ++i) {
      own.push_back(
          {cls, static_cast<std::uint32_t>(rng.NextBounded(granules_))});
    }
    // Under a Restructure the class owning segment `cls` is renumbered.
    program.options.txn_class =
        classes_ != nullptr ? classes_->ClassOfSegment(cls) : cls;
    program.body = [reads, own](ConcurrencyController& cc,
                                const TxnDescriptor& txn) -> Status {
      Value acc = 1;
      for (GranuleRef ref : reads) {
        HDD_ASSIGN_OR_RETURN(Value v, cc.Read(txn, ref));
        acc += v;
      }
      for (GranuleRef ref : own) {
        HDD_ASSIGN_OR_RETURN(Value v, cc.Read(txn, ref));
        HDD_RETURN_IF_ERROR(cc.Write(txn, ref, v + acc));
      }
      return Status::OK();
    };
    return program;
  }

 private:
  const RandomHierarchy& h_;
  std::uint32_t granules_;
  HostLog* hosts_;
  const HddController* classes_;
};

class RandomHierarchyTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(RandomHierarchyTest, ConcurrentExecutionSerializable) {
  Rng rng(GetParam());
  for (int round = 0; round < 3; ++round) {
    RandomHierarchy h = MakeRandomHierarchy(rng);
    auto schema = HierarchySchema::Create(h.spec);
    ASSERT_TRUE(schema.ok()) << schema.status();
    constexpr std::uint32_t kGranules = 8;
    Database db(static_cast<int>(h.spec.segment_names.size()), kGranules);
    LogicalClock clock;
    HddController cc(&db, &clock, &*schema);

    RandomHierarchyWorkload workload(h, kGranules);
    ExecutorOptions options;
    options.num_threads = 4;
    options.seed = GetParam() * 31 + static_cast<std::uint64_t>(round);
    ExecutorStats stats = RunWorkload(cc, workload, 250, options);
    EXPECT_EQ(stats.failed, 0u);

    auto report = CheckSerializability(cc.recorder());
    EXPECT_TRUE(report.serializable)
        << "seed " << GetParam() << " round " << round
        << " produced a cycle of " << report.witness_cycle.size()
        << " transactions";
    EXPECT_EQ(cc.metrics().read_locks_acquired.load(), 0u);
  }
}

// Bound of the latest read `txn` recorded (single-threaded callers).
Timestamp LastReadBound(const HddController& cc, TxnId txn) {
  const std::vector<Step> steps = cc.recorder().steps();
  for (auto it = steps.rbegin(); it != steps.rend(); ++it) {
    if (it->txn == txn && it->action == Step::Action::kRead) return it->bound;
  }
  ADD_FAILURE() << "no read recorded for txn " << txn;
  return kTimestampMin;
}

// Every unregistered read of a concurrent run, replayed through a fresh
// evaluator walk after the run: an update transaction's Protocol A read
// must have been served at A_own^target(I(t)), and a hosted reader's read
// at A_host^target(base), base being the bound of its read of the host
// segment (I^old_host(I(t))). Finished history is kept (no idle trim), so
// the tables answer every past query exactly as they did at read time.
// A first quarter of the run is checked under the original structure;
// then a Restructure (one class merged into its parent) lands while the
// rest runs, and the reads of transactions that began after it returned
// are checked against the merged structure (the others may have read
// under either structure and are left out).
TEST_P(RandomHierarchyTest, MemoisedBoundsEqualFreshEvaluation) {
  Rng rng(GetParam() + 1000);
  for (int round = 0; round < 3; ++round) {
    RandomHierarchy h = MakeRandomHierarchy(rng);
    DeclareAllAncestors(h);
    auto schema = HierarchySchema::Create(h.spec);
    ASSERT_TRUE(schema.ok()) << schema.status();
    constexpr std::uint32_t kGranules = 8;
    const int n = static_cast<int>(h.spec.segment_names.size());
    Database db(n, kGranules);
    LogicalClock clock;
    HddControllerOptions copts;
    copts.auto_trim_history = false;
    HddController cc(&db, &clock, &*schema, copts);

    HostLog hosts;
    RandomHierarchyWorkload workload(h, kGranules, &hosts, &cc);
    // Checks the reads of the transactions that began after `since`;
    // returns how many it checked.
    auto check_reads_since = [&](Timestamp since) -> std::uint64_t {
      std::uint64_t checked = 0;
      const auto identities = cc.recorder().identities();
      std::unordered_map<TxnId, Timestamp> host_base;
      for (const Step& step : cc.recorder().steps()) {
        if (step.action != Step::Action::kRead || step.registered) continue;
        const ScheduleRecorder::TxnIdentity& id = identities.at(step.txn);
        if (id.init_ts <= since) continue;
        const ClassId target = cc.ClassOfSegment(step.granule.segment);
        if (!id.read_only) {
          auto fresh = cc.evaluator().A(id.txn_class, target, id.init_ts);
          EXPECT_TRUE(fresh.ok());
          EXPECT_EQ(step.bound, (fresh.ok() ? *fresh : kTimestampMin))
              << "seed " << GetParam() << " round " << round << " txn "
              << step.txn;
          ++checked;
          continue;
        }
        auto hosted = hosts.host.find(step.txn);
        if (hosted == hosts.host.end()) continue;  // a Protocol C reader
        const ClassId host = cc.ClassOfSegment(hosted->second);
        if (target == host) {
          host_base[step.txn] = step.bound;  // its first read (scope order)
          continue;
        }
        EXPECT_TRUE(host_base.count(step.txn));
        auto fresh = cc.evaluator().A(host, target, host_base[step.txn]);
        EXPECT_TRUE(fresh.ok());
        EXPECT_EQ(step.bound, (fresh.ok() ? *fresh : kTimestampMin))
            << "seed " << GetParam() << " round " << round << " hosted txn "
            << step.txn;
        ++checked;
      }
      return checked;
    };

    ExecutorOptions options;
    options.num_threads = 4;
    options.seed = GetParam() * 17 + static_cast<std::uint64_t>(round);
    constexpr std::uint64_t kPrograms = 400;
    ExecutorStats stats = RunWorkload(cc, workload, kPrograms / 4, options);
    EXPECT_GT(check_reads_since(kTimestampMin), 0u);
    EXPECT_TRUE(CheckSerializability(cc.recorder()).serializable);

    const SegmentId child =
        static_cast<SegmentId>(rng.NextInRange(1, n - 1));
    Timestamp restructured_at = kTimestampInfinity;
    std::thread restructurer([&] {
      auto merged = cc.Restructure({child, h.parent[child]}, {});
      ASSERT_TRUE(merged.ok()) << merged.status();
      restructured_at = clock.Now();
    });
    options.seed += 1000;
    stats.failed +=
        RunWorkload(cc, workload, kPrograms - kPrograms / 4, options).failed;
    restructurer.join();
    // A program made before the swap and begun after it carries a stale
    // class and fails; each worker has at most one such program.
    EXPECT_LE(stats.failed, static_cast<std::uint64_t>(options.num_threads));
    // Serializability across the restructure is not asserted here: a
    // transaction of a class below the merged pair that stays live across
    // the swap lets later bounds reach the merged class before the swap,
    // where its table mixes both old classes' histories (ROADMAP.md).
    check_reads_since(restructured_at);
  }
}

// A transaction live across a Restructure: bounds memoised before the
// swap are dropped with the old structure, and every read on either side
// equals a fresh evaluator walk under the structure current at the read.
// The classes above the reader carry live and finished straddlers so the
// bounds differ from I(t).
TEST_P(RandomHierarchyTest, MemoDroppedAcrossRestructure) {
  Rng rng(GetParam() + 2000);
  int exercised = 0;
  for (int round = 0; round < 8; ++round) {
    RandomHierarchy h = MakeRandomHierarchy(rng);
    const int n = static_cast<int>(h.spec.segment_names.size());
    // A reader class with at least two ancestors.
    ClassId reader_class = -1;
    for (ClassId v = n - 1; v >= 0 && reader_class < 0; --v) {
      if (h.ancestors[v].size() >= 2) reader_class = v;
    }
    if (reader_class < 0) continue;
    ++exercised;
    DeclareAllAncestors(h);
    auto schema = HierarchySchema::Create(h.spec);
    ASSERT_TRUE(schema.ok()) << schema.status();
    Database db(n, 2);
    LogicalClock clock;
    HddControllerOptions copts;
    copts.auto_trim_history = false;
    HddController cc(&db, &clock, &*schema, copts);

    // Activity that makes the merge change a bound: a grandparent-class
    // transaction that began before a parent-class one and finished
    // before the reader began. Unmerged, A^grandparent(I(t)) =
    // I^old_grandparent(I^old_parent(I(t))) stabs it; merged, the class
    // answers I^old at I(t) itself, which it no longer straddles. Every
    // higher ancestor carries a straddler that stays live throughout.
    const SegmentId parent = h.ancestors[reader_class][0];
    const SegmentId grandparent = h.ancestors[reader_class][1];
    std::vector<TxnDescriptor> live;
    for (std::size_t k = 2; k < h.ancestors[reader_class].size(); ++k) {
      const SegmentId a = h.ancestors[reader_class][k];
      auto txn = cc.Begin({.txn_class = a});
      ASSERT_TRUE(txn.ok());
      ASSERT_TRUE(cc.Write(*txn, {a, 0}, 1).ok());
      live.push_back(*txn);
    }
    auto early = cc.Begin({.txn_class = grandparent});
    auto straddler = cc.Begin({.txn_class = parent});
    ASSERT_TRUE(early.ok() && straddler.ok());
    ASSERT_TRUE(cc.Write(*early, {grandparent, 0}, 1).ok());
    ASSERT_TRUE(cc.Write(*straddler, {parent, 0}, 1).ok());
    ASSERT_TRUE(cc.Commit(*early).ok());
    auto reader = cc.Begin({.txn_class = reader_class});
    ASSERT_TRUE(reader.ok());
    // The restructure drains the two merged classes.
    ASSERT_TRUE(cc.Commit(*straddler).ok());
    std::unordered_map<SegmentId, Timestamp> bound_of;
    auto read_all = [&](const char* when) {
      for (SegmentId a : h.ancestors[reader_class]) {
        ASSERT_TRUE(cc.Read(*reader, {a, 1}).ok()) << when;
        const ClassId own = cc.ClassOfSegment(reader_class);
        auto fresh =
            cc.evaluator().A(own, cc.ClassOfSegment(a), reader->init_ts);
        ASSERT_TRUE(fresh.ok()) << when;
        bound_of[a] = LastReadBound(cc, reader->id);
        EXPECT_EQ(bound_of[a], *fresh)
            << when << ", segment " << a << ", seed " << GetParam();
      }
    };
    read_all("before the restructure");
    EXPECT_EQ(bound_of[grandparent], early->init_ts);
    auto merged = cc.Restructure({parent, grandparent}, {});
    ASSERT_TRUE(merged.ok()) << merged.status();
    ASSERT_EQ(cc.ClassOfSegment(parent), cc.ClassOfSegment(grandparent));
    read_all("after the restructure");
    // A bound memoised before the swap would now be wrong.
    EXPECT_EQ(bound_of[grandparent], straddler->init_ts);
    ASSERT_TRUE(cc.Commit(*reader).ok());
    for (const TxnDescriptor& txn : live) ASSERT_TRUE(cc.Commit(txn).ok());
    EXPECT_TRUE(CheckSerializability(cc.recorder()).serializable);
  }
  EXPECT_GT(exercised, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomHierarchyTest,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u, 66u,
                                           77u, 88u));

}  // namespace
}  // namespace hdd
