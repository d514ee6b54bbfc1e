#ifndef HDD_GRAPH_SEMI_TREE_H_
#define HDD_GRAPH_SEMI_TREE_H_

#include <optional>
#include <vector>

#include "common/status.h"
#include "graph/algorithms.h"
#include "graph/digraph.h"

namespace hdd {

/// True iff `g` is a semi-tree: at most one undirected path between any
/// pair of nodes (paper §3.1). Every arc of a semi-tree is critical.
bool IsSemiTree(const Digraph& g);

/// True iff `g` is a transitive semi-tree: acyclic and its transitive
/// reduction is a semi-tree (paper §3.1).
bool IsTransitiveSemiTree(const Digraph& g);

/// Precomputed structure over a transitive semi-tree: its transitive
/// reduction (whose arcs are exactly the *critical arcs*), critical paths,
/// the `higher-than` partial order and undirected critical paths (UCPs).
///
/// This is the query interface both the DHG validation and the activity
/// link functions (`A`, `B`, `E`) are built on.
class TstAnalysis {
 public:
  /// Fails with InvalidArgument when `g` is not a transitive semi-tree.
  static Result<TstAnalysis> Create(const Digraph& g);

  const Digraph& graph() const { return graph_; }
  /// The transitive reduction; its arcs are the critical arcs.
  const Digraph& reduction() const { return reduction_; }

  bool IsCriticalArc(NodeId u, NodeId v) const {
    return reduction_.HasArc(u, v);
  }

  /// The unique critical path from i to j (node sequence i ... j, all arcs
  /// critical and directed i-to-j), or nullopt when none exists.
  /// CriticalPath(i, i) == {i}.
  std::optional<std::vector<NodeId>> CriticalPath(NodeId i, NodeId j) const;

  /// The step after u on the critical path u -> ... -> j: the out-neighbour
  /// v of u in the reduction with v == j or Higher(j, v). Precondition:
  /// Higher(j, u). Allocation-free; stepping u = NextOnCriticalPath(u, j)
  /// from i until u == j visits exactly CriticalPath(i, j).
  NodeId NextOnCriticalPath(NodeId u, NodeId j) const;

  /// The mirror step for descending walks: the step before v on the
  /// critical path i -> ... -> v, i.e. the in-neighbour w of v in the
  /// reduction with w == i or Higher(w, i). Precondition: Higher(v, i).
  NodeId PrevOnCriticalPath(NodeId i, NodeId v) const;

  /// Paper's `T_j ↑ T_i` ("j higher than i"): a critical path i -> j
  /// exists. Higher(i, i) is false.
  bool Higher(NodeId j, NodeId i) const;

  /// The unique undirected critical path between i and j in the reduction
  /// (node sequence i ... j), or nullopt when i and j are in different
  /// weak components. Ucp(i, i) == {i}.
  std::optional<std::vector<NodeId>> Ucp(NodeId i, NodeId j) const;

 private:
  explicit TstAnalysis(Digraph g);

  Digraph graph_;
  Digraph reduction_;
  std::vector<std::vector<bool>> reduction_closure_;
};

}  // namespace hdd

#endif  // HDD_GRAPH_SEMI_TREE_H_
