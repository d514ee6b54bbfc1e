#include "graph/semi_tree.h"

#include <cassert>

namespace hdd {

bool IsSemiTree(const Digraph& g) { return UnderlyingUndirectedIsForest(g); }

bool IsTransitiveSemiTree(const Digraph& g) {
  if (!IsAcyclic(g)) return false;
  return IsSemiTree(TransitiveReduction(g));
}

TstAnalysis::TstAnalysis(Digraph g)
    : graph_(std::move(g)),
      reduction_(TransitiveReduction(graph_)),
      reduction_closure_(TransitiveClosureMatrix(reduction_)) {}

Result<TstAnalysis> TstAnalysis::Create(const Digraph& g) {
  if (!IsAcyclic(g)) {
    return Status::InvalidArgument("graph is not acyclic");
  }
  if (!IsSemiTree(TransitiveReduction(g))) {
    return Status::InvalidArgument(
        "transitive reduction is not a semi-tree");
  }
  return TstAnalysis(g);
}

std::optional<std::vector<NodeId>> TstAnalysis::CriticalPath(NodeId i,
                                                             NodeId j) const {
  if (i == j) return std::vector<NodeId>{i};
  if (!reduction_closure_[i][j]) return std::nullopt;
  // In a semi-tree the undirected path is unique, so the directed critical
  // path, when it exists, is that same node sequence.
  auto path = UndirectedTreePath(reduction_, i, j);
  assert(path.has_value());
  // Verify all arcs run i-to-j; reachability guarantees it, but assert in
  // debug builds.
  for (std::size_t k = 0; k + 1 < path->size(); ++k) {
    assert(reduction_.HasArc((*path)[k], (*path)[k + 1]));
  }
  return path;
}

NodeId TstAnalysis::NextOnCriticalPath(NodeId u, NodeId j) const {
  assert(reduction_closure_[u][j]);
  // In a semi-tree exactly one critical arc out of u leads on towards j.
  for (NodeId v : reduction_.OutNeighbors(u)) {
    if (v == j || reduction_closure_[v][j]) return v;
  }
  assert(false && "no critical step towards j");
  return j;
}

NodeId TstAnalysis::PrevOnCriticalPath(NodeId i, NodeId v) const {
  assert(reduction_closure_[i][v]);
  for (NodeId w : reduction_.InNeighbors(v)) {
    if (w == i || reduction_closure_[i][w]) return w;
  }
  assert(false && "no critical step back towards i");
  return i;
}

bool TstAnalysis::Higher(NodeId j, NodeId i) const {
  if (i == j) return false;
  return reduction_closure_[i][j];
}

std::optional<std::vector<NodeId>> TstAnalysis::Ucp(NodeId i, NodeId j) const {
  return UndirectedTreePath(reduction_, i, j);
}

}  // namespace hdd
