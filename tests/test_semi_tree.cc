#include "graph/semi_tree.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace hdd {
namespace {

// The paper's Figure 5 transitive semi-tree: a chain with transitively
// induced shortcuts plus a side branch.
Digraph Figure5Like() {
  // Reduction shape:  4 -> 3 -> 2 -> 1   and   5 -> 3.
  Digraph g(6);  // node 0 unused spare to exercise non-contiguity
  g.AddArc(4, 3);
  g.AddArc(3, 2);
  g.AddArc(2, 1);
  g.AddArc(5, 3);
  // Transitively induced arcs.
  g.AddArc(4, 2);
  g.AddArc(4, 1);
  g.AddArc(5, 2);
  return g;
}

TEST(SemiTreeTest, ChainIsSemiTree) {
  Digraph g(3);
  g.AddArc(0, 1);
  g.AddArc(1, 2);
  EXPECT_TRUE(IsSemiTree(g));
}

TEST(SemiTreeTest, SharedSinkIsSemiTree) {
  // Two classes reading one top segment: 1 -> 0 <- 2 (undirected tree).
  Digraph g(3);
  g.AddArc(1, 0);
  g.AddArc(2, 0);
  EXPECT_TRUE(IsSemiTree(g));
}

TEST(SemiTreeTest, DiamondIsNotSemiTree) {
  Digraph g(4);
  g.AddArc(0, 1);
  g.AddArc(0, 2);
  g.AddArc(1, 3);
  g.AddArc(2, 3);
  EXPECT_FALSE(IsSemiTree(g));
}

TEST(TstTest, Figure5GraphIsTst) {
  EXPECT_TRUE(IsTransitiveSemiTree(Figure5Like()));
}

TEST(TstTest, DiamondReductionIsNotTst) {
  Digraph g(4);
  g.AddArc(0, 1);
  g.AddArc(0, 2);
  g.AddArc(1, 3);
  g.AddArc(2, 3);
  EXPECT_FALSE(IsTransitiveSemiTree(g));
}

TEST(TstTest, DirectedCycleIsNotTst) {
  Digraph g(2);
  g.AddArc(0, 1);
  g.AddArc(1, 0);
  EXPECT_FALSE(IsTransitiveSemiTree(g));
}

TEST(TstTest, ShortcutsDoNotDisqualify) {
  Digraph g(3);
  g.AddArc(0, 1);
  g.AddArc(1, 2);
  g.AddArc(0, 2);  // transitively induced
  EXPECT_TRUE(IsTransitiveSemiTree(g));
  EXPECT_FALSE(IsSemiTree(g));  // but it is not itself a semi-tree
}

TEST(TstAnalysisTest, RejectsIllegalGraphs) {
  Digraph diamond(4);
  diamond.AddArc(0, 1);
  diamond.AddArc(0, 2);
  diamond.AddArc(1, 3);
  diamond.AddArc(2, 3);
  EXPECT_FALSE(TstAnalysis::Create(diamond).ok());

  Digraph cyclic(2);
  cyclic.AddArc(0, 1);
  cyclic.AddArc(1, 0);
  EXPECT_FALSE(TstAnalysis::Create(cyclic).ok());
}

TEST(TstAnalysisTest, CriticalArcsAreReductionArcs) {
  auto analysis = TstAnalysis::Create(Figure5Like());
  ASSERT_TRUE(analysis.ok());
  EXPECT_TRUE(analysis->IsCriticalArc(4, 3));
  EXPECT_TRUE(analysis->IsCriticalArc(3, 2));
  EXPECT_TRUE(analysis->IsCriticalArc(5, 3));
  // Induced arcs are not critical.
  EXPECT_FALSE(analysis->IsCriticalArc(4, 2));
  EXPECT_FALSE(analysis->IsCriticalArc(4, 1));
}

TEST(TstAnalysisTest, CriticalPathFollowsReduction) {
  auto analysis = TstAnalysis::Create(Figure5Like());
  ASSERT_TRUE(analysis.ok());
  auto path = analysis->CriticalPath(4, 1);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(*path, (std::vector<NodeId>{4, 3, 2, 1}));
}

TEST(TstAnalysisTest, CriticalPathToSelf) {
  auto analysis = TstAnalysis::Create(Figure5Like());
  ASSERT_TRUE(analysis.ok());
  auto path = analysis->CriticalPath(3, 3);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(*path, (std::vector<NodeId>{3}));
}

TEST(TstAnalysisTest, NoPathAcrossBranches) {
  auto analysis = TstAnalysis::Create(Figure5Like());
  ASSERT_TRUE(analysis.ok());
  EXPECT_FALSE(analysis->CriticalPath(4, 5).has_value());
  EXPECT_FALSE(analysis->CriticalPath(5, 4).has_value());
  EXPECT_FALSE(analysis->CriticalPath(1, 4).has_value());  // wrong direction
}

TEST(TstAnalysisTest, HigherThanPartialOrder) {
  auto analysis = TstAnalysis::Create(Figure5Like());
  ASSERT_TRUE(analysis.ok());
  EXPECT_TRUE(analysis->Higher(1, 4));   // T_1 higher than T_4
  EXPECT_TRUE(analysis->Higher(3, 5));
  EXPECT_TRUE(analysis->Higher(2, 4));
  EXPECT_FALSE(analysis->Higher(4, 1));
  EXPECT_FALSE(analysis->Higher(4, 5));  // incomparable branches
  EXPECT_FALSE(analysis->Higher(3, 3));  // irreflexive
}

TEST(TstAnalysisTest, UcpCrossesBranches) {
  auto analysis = TstAnalysis::Create(Figure5Like());
  ASSERT_TRUE(analysis.ok());
  auto ucp = analysis->Ucp(4, 5);
  ASSERT_TRUE(ucp.has_value());
  EXPECT_EQ(*ucp, (std::vector<NodeId>{4, 3, 5}));
}

TEST(TstAnalysisTest, UcpDisconnected) {
  auto analysis = TstAnalysis::Create(Figure5Like());
  ASSERT_TRUE(analysis.ok());
  EXPECT_FALSE(analysis->Ucp(0, 4).has_value());  // node 0 is isolated
}

// The allocation-free steps walk exactly the materialised critical path,
// upward (NextOnCriticalPath) and downward (PrevOnCriticalPath), for every
// ordered pair on random transitive semi-trees: a random forest with
// random arc directions, plus random transitively induced shortcuts.
TEST(TstAnalysisTest, CriticalStepsWalkCriticalPathOnRandomTsts) {
  Rng rng(2718);
  int walked = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const int n = static_cast<int>(rng.NextInRange(1, 9));
    Digraph g(n);
    for (NodeId v = 1; v < n; ++v) {
      if (rng.NextBool(0.15)) continue;  // start another tree
      const NodeId u = static_cast<NodeId>(rng.NextBounded(v));
      if (rng.NextBool(0.5)) {
        g.AddArc(u, v);
      } else {
        g.AddArc(v, u);
      }
    }
    const std::vector<std::vector<bool>> reach = TransitiveClosureMatrix(g);
    for (NodeId u = 0; u < n; ++u) {
      for (NodeId w = 0; w < n; ++w) {
        if (reach[u][w] && rng.NextBool(0.3)) g.AddArc(u, w);
      }
    }
    auto analysis = TstAnalysis::Create(g);
    ASSERT_TRUE(analysis.ok()) << g.ToDot();
    for (NodeId i = 0; i < n; ++i) {
      for (NodeId j = 0; j < n; ++j) {
        const auto path = analysis->CriticalPath(i, j);
        if (i == j || !path.has_value()) continue;
        std::vector<NodeId> up = {i};
        for (NodeId u = i; u != j;) {
          u = analysis->NextOnCriticalPath(u, j);
          up.push_back(u);
          ASSERT_LE(up.size(), path->size()) << i << "->" << j;
        }
        EXPECT_EQ(up, *path) << i << "->" << j << "\n" << g.ToDot();
        std::vector<NodeId> down = {j};
        for (NodeId v = j; v != i;) {
          v = analysis->PrevOnCriticalPath(i, v);
          down.push_back(v);
          ASSERT_LE(down.size(), path->size()) << i << "->" << j;
        }
        EXPECT_EQ(std::vector<NodeId>(down.rbegin(), down.rend()), *path)
            << i << "->" << j << "\n" << g.ToDot();
        ++walked;
      }
    }
  }
  EXPECT_GT(walked, 500);  // the generator produced long enough paths
}

// Brute-force cross-check of the semi-tree definition: "at most one
// undirected path between any pair of nodes". Enumerates all undirected
// simple paths on small random digraphs and compares with IsSemiTree.
namespace brute {

int CountUndirectedPaths(const hdd::Digraph& g, NodeId from, NodeId to,
                         std::vector<bool>& visited) {
  if (from == to) return 1;
  visited[from] = true;
  int count = 0;
  auto try_step = [&](NodeId next) {
    if (!visited[next]) count += CountUndirectedPaths(g, next, to, visited);
  };
  for (NodeId v : g.OutNeighbors(from)) try_step(v);
  for (NodeId v : g.InNeighbors(from)) try_step(v);
  visited[from] = false;
  return count;
}

bool IsSemiTreeBruteForce(const hdd::Digraph& g) {
  // Antiparallel arcs are two one-hop undirected paths.
  for (const auto& [u, v] : g.Arcs()) {
    if (g.HasArc(v, u)) return false;
  }
  for (NodeId a = 0; a < g.num_nodes(); ++a) {
    for (NodeId b = a + 1; b < g.num_nodes(); ++b) {
      std::vector<bool> visited(g.num_nodes(), false);
      if (CountUndirectedPaths(g, a, b, visited) > 1) return false;
    }
  }
  return true;
}

}  // namespace brute

TEST(SemiTreePropertyTest, MatchesBruteForceOnRandomGraphs) {
  Rng rng(314);
  int semi_trees = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const int n = static_cast<int>(rng.NextInRange(2, 6));
    Digraph g(n);
    const int arcs = static_cast<int>(rng.NextInRange(0, 7));
    for (int i = 0; i < arcs; ++i) {
      const NodeId u = static_cast<NodeId>(rng.NextBounded(n));
      const NodeId v = static_cast<NodeId>(rng.NextBounded(n));
      if (u != v) g.AddArc(u, v);
    }
    const bool fast = IsSemiTree(g);
    const bool brute_force = brute::IsSemiTreeBruteForce(g);
    ASSERT_EQ(fast, brute_force)
        << "disagreement on trial " << trial << ":\n"
        << g.ToDot();
    semi_trees += fast;
  }
  // Sanity: the generator produced both kinds.
  EXPECT_GT(semi_trees, 10);
  EXPECT_LT(semi_trees, 290);
}

}  // namespace
}  // namespace hdd
