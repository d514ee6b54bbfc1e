#include "hdd/link_functions.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"

namespace hdd {
namespace {

// Chain THG: class 2 (lowest) -> 1 -> 0 (highest); arcs point up.
Digraph ChainGraph() {
  Digraph g(3);
  g.AddArc(2, 1);
  g.AddArc(1, 0);
  return g;
}

// Branched THG:   3 -> 1 -> 0,  2 -> 1. (0 highest; 3 and 2 are leaves.)
Digraph BranchGraph() {
  Digraph g(4);
  g.AddArc(3, 1);
  g.AddArc(2, 1);
  g.AddArc(1, 0);
  return g;
}

class LinkFunctionsTest : public ::testing::Test {
 protected:
  void Build(const Digraph& g) {
    auto tst = TstAnalysis::Create(g);
    ASSERT_TRUE(tst.ok());
    tst_ = std::make_unique<TstAnalysis>(std::move(tst).value());
    tables_.clear();
    tables_.resize(g.num_nodes());
    eval_ =
        std::make_unique<ActivityLinkEvaluator>(tst_.get(), &tables_);
  }

  std::unique_ptr<TstAnalysis> tst_;
  std::vector<ClassActivityTable> tables_;
  std::unique_ptr<ActivityLinkEvaluator> eval_;
};

TEST_F(LinkFunctionsTest, AIdentityOnSameClass) {
  Build(ChainGraph());
  auto a = eval_->A(1, 1, 42);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(*a, 42u);
}

TEST_F(LinkFunctionsTest, ASingleArcIsIOld) {
  Build(ChainGraph());
  tables_[1].OnBegin(5);  // oldest active txn of class 1
  auto a = eval_->A(2, 1, 10);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(*a, 5u);
}

TEST_F(LinkFunctionsTest, AComposesAlongCriticalPath) {
  // The paper's Figure 6 shape: A_2^0(m) = I^old_0(I^old_1(m)).
  Build(ChainGraph());
  tables_[1].OnBegin(4);   // class 1's oldest active
  tables_[0].OnBegin(2);   // class 0 txn older than that
  tables_[0].OnFinish(2, 3);  // ...but finished at 3 < 4: not active at 4
  tables_[0].OnBegin(3);
  auto a = eval_->A(2, 0, 10);
  ASSERT_TRUE(a.ok());
  // I_old_1(10) = 4; I_old_0(4) = 3 (txn begun at 3 is active at 4).
  EXPECT_EQ(*a, 3u);
}

TEST_F(LinkFunctionsTest, AUndefinedAcrossBranches) {
  Build(BranchGraph());
  EXPECT_FALSE(eval_->A(3, 2, 10).ok());
  EXPECT_FALSE(eval_->A(0, 1, 10).ok());  // wrong direction
}

TEST_F(LinkFunctionsTest, AIdleClassesPassThrough) {
  Build(ChainGraph());
  auto a = eval_->A(2, 0, 17);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(*a, 17u);
}

TEST_F(LinkFunctionsTest, BSingleArcIsCLateAtTop) {
  Build(ChainGraph());
  tables_[1].OnBegin(5);
  tables_[1].OnFinish(5, 20);
  // B_1^2(10): C^late at class 1 only (bottom class 2 excluded).
  auto b = eval_->B(1, 2, 10);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*b, 20u);
}

TEST_F(LinkFunctionsTest, BBusyWhileTransactionActive) {
  Build(ChainGraph());
  tables_[1].OnBegin(5);
  EXPECT_EQ(eval_->B(1, 2, 10).status().code(), StatusCode::kBusy);
  tables_[1].OnFinish(5, 20);
  EXPECT_TRUE(eval_->B(1, 2, 10).ok());
}

TEST_F(LinkFunctionsTest, EIdentityAndAscendingMatchesA) {
  Build(BranchGraph());
  tables_[1].OnBegin(6);
  tables_[0].OnBegin(3);
  auto e_same = eval_->E(3, 3, 11);
  ASSERT_TRUE(e_same.ok());
  EXPECT_EQ(*e_same, 11u);
  auto e = eval_->E(3, 0, 11);
  auto a = eval_->A(3, 0, 11);
  ASSERT_TRUE(e.ok());
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(*e, *a);
}

TEST_F(LinkFunctionsTest, ECrossBranchUpThenDown) {
  Build(BranchGraph());
  // UCP from 3 to 2: 3 -> 1 (up), then 1 -> 2 (down).
  // Up: I_old_1(m); down from 1 to 2: C^late at 1 (bottom 2 excluded).
  tables_[1].OnBegin(5);
  tables_[1].OnFinish(5, 30);
  auto e = eval_->E(3, 2, 10);
  ASSERT_TRUE(e.ok());
  // I_old_1(10) = 5 (txn straddles 10); C_late_1(5) = 5? txn begun at 5 is
  // not active AT 5 (needs I < m). So bound = 5.
  EXPECT_EQ(*e, 5u);
}

TEST_F(LinkFunctionsTest, EDisconnectedClassesInvalid) {
  Digraph g(3);
  g.AddArc(1, 0);
  Build(g);  // class 2 isolated
  EXPECT_FALSE(eval_->E(1, 2, 10).ok());
}

// Randomized validation of the paper's Property 2.1 and 2.2 — the
// load-bearing facts behind time-wall consistency:
//   A_i^j(B_j^i(m)) >= m      and      A_i^j(B_j^i(m) - 1) < m.
TEST_F(LinkFunctionsTest, Properties21And22Randomized) {
  Rng rng(4242);
  for (int trial = 0; trial < 200; ++trial) {
    // Chain of 2-5 classes.
    const int n = static_cast<int>(rng.NextInRange(2, 5));
    Digraph g(n);
    for (int c = n - 1; c > 0; --c) g.AddArc(c, c - 1);
    Build(g);
    // Random fully-finished activity so every C^late is computable.
    Timestamp now = 1;
    for (int c = 0; c < n; ++c) {
      std::vector<Timestamp> open;
      const int events = static_cast<int>(rng.NextInRange(0, 14));
      for (int e = 0; e < events; ++e) {
        if (!open.empty() && rng.NextBool(0.5)) {
          const std::size_t pick = rng.NextBounded(open.size());
          tables_[c].OnFinish(open[pick], ++now);
          open.erase(open.begin() + static_cast<long>(pick));
        } else {
          tables_[c].OnBegin(++now);
          open.push_back(now);
        }
      }
      for (Timestamp t : open) tables_[c].OnFinish(t, ++now);
    }
    const ClassId bottom = n - 1;
    const ClassId top = 0;
    for (int probe = 0; probe < 10; ++probe) {
      const Timestamp m = 2 + rng.NextBounded(now + 4);
      auto b = eval_->B(top, bottom, m);
      ASSERT_TRUE(b.ok()) << b.status();
      auto ab = eval_->A(bottom, top, *b);
      ASSERT_TRUE(ab.ok());
      EXPECT_GE(*ab, m) << "Property 2.1 violated at trial " << trial
                        << " m=" << m << " B=" << *b;
      if (*b > 0) {
        auto ab_eps = eval_->A(bottom, top, *b - 1);
        ASSERT_TRUE(ab_eps.ok());
        EXPECT_LT(*ab_eps, m) << "Property 2.2 violated at trial " << trial
                              << " m=" << m << " B=" << *b;
      }
    }
  }
}

// Property 0.1 (composition): A_i^j = A_k^j o A_i^k for any intermediate
// class k on the critical path.
TEST_F(LinkFunctionsTest, AComposesThroughIntermediates) {
  Rng rng(55);
  Build(ChainGraph());
  Timestamp now = 1;
  for (int c = 0; c < 3; ++c) {
    std::vector<Timestamp> open;
    for (int e = 0; e < 16; ++e) {
      if (!open.empty() && rng.NextBool(0.4)) {
        const std::size_t pick = rng.NextBounded(open.size());
        tables_[c].OnFinish(open[pick], ++now);
        open.erase(open.begin() + static_cast<long>(pick));
      } else {
        tables_[c].OnBegin(++now);
        open.push_back(now);
      }
    }
    for (Timestamp t : open) tables_[c].OnFinish(t, ++now);
  }
  for (Timestamp m = 1; m < now + 3; ++m) {
    auto direct = eval_->A(2, 0, m);
    auto via_1 = eval_->A(2, 1, m);
    ASSERT_TRUE(direct.ok());
    ASSERT_TRUE(via_1.ok());
    auto hop = eval_->A(1, 0, *via_1);
    ASSERT_TRUE(hop.ok());
    EXPECT_EQ(*direct, *hop) << "composition broken at m=" << m;
  }
}

// A is monotone in m (Property 0.2, used by every transitivity case).
TEST_F(LinkFunctionsTest, AMonotoneRandomized) {
  Rng rng(99);
  Build(ChainGraph());
  Timestamp now = 1;
  for (int c = 0; c < 3; ++c) {
    std::vector<Timestamp> open;
    for (int e = 0; e < 20; ++e) {
      if (!open.empty() && rng.NextBool(0.45)) {
        const std::size_t pick = rng.NextBounded(open.size());
        tables_[c].OnFinish(open[pick], ++now);
        open.erase(open.begin() + static_cast<long>(pick));
      } else {
        tables_[c].OnBegin(++now);
        open.push_back(now);
      }
    }
    for (Timestamp t : open) tables_[c].OnFinish(t, ++now);
  }
  Timestamp prev = 0;
  for (Timestamp m = 1; m < now + 3; ++m) {
    auto a = eval_->A(2, 0, m);
    ASSERT_TRUE(a.ok());
    EXPECT_GE(*a, prev) << "A not monotone at m=" << m;
    prev = *a;
  }
}

// A table source that counts its I^old queries (one per shard latch in
// the controller).
class CountingSource : public ActivityTableSource {
 public:
  explicit CountingSource(const std::vector<ClassActivityTable>* tables)
      : inner_(tables) {}
  Timestamp OldestActiveAt(ClassId c, Timestamp m) const override {
    ++queries;
    return inner_.OldestActiveAt(c, m);
  }
  Result<Timestamp> LatestEndAt(ClassId c, Timestamp m) const override {
    return inner_.LatestEndAt(c, m);
  }
  mutable int queries = 0;

 private:
  VectorTableSource inner_;
};

// With a per-caller memo, A over one (i, m) queries each class's table at
// most once across any sequence of targets, and returns exactly what an
// unmemoised walk returns.
TEST_F(LinkFunctionsTest, AMemoQueriesEachClassOnce) {
  // Chain 5 -> 4 -> 3 -> 2 -> 1 -> 0 with a side branch 6 -> 2.
  Digraph g(7);
  for (NodeId v = 1; v <= 5; ++v) g.AddArc(v, v - 1);
  g.AddArc(6, 2);
  Build(g);
  Rng rng(7);
  Timestamp now = 1;
  for (ClassId c = 0; c < 7; ++c) {
    for (int e = 0; e < 4; ++e) {
      const Timestamp init = ++now;
      tables_[c].OnBegin(init);
      // Distinct ends within a class; some straddle others' starts.
      if (rng.NextBool(0.6)) tables_[c].OnFinish(init, init + 5 + e);
    }
  }
  CountingSource counting(&tables_);
  ActivityLinkEvaluator memoised(tst_.get(), &counting);
  const Timestamp m = now + 20;
  std::vector<Timestamp> memo(7, kTimestampInfinity);
  for (ClassId j : {2, 4, 0, 3, 1, 0, 4}) {
    auto with = memoised.A(5, j, m, memo.data());
    auto without = eval_->A(5, j, m);
    ASSERT_TRUE(with.ok() && without.ok());
    EXPECT_EQ(*with, *without) << "target " << j;
  }
  EXPECT_EQ(counting.queries, 5);  // classes 4..0, once each
  EXPECT_FALSE(memoised.A(5, 6, m, memo.data()).ok());  // not above 5
}

}  // namespace
}  // namespace hdd
