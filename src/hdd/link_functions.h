#ifndef HDD_HDD_LINK_FUNCTIONS_H_
#define HDD_HDD_LINK_FUNCTIONS_H_

#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "graph/dhg.h"
#include "graph/semi_tree.h"
#include "hdd/activity.h"

namespace hdd {

/// Where the activity-link evaluator gets its per-class I^old / C^late
/// values from. The single-threaded tools read a plain table vector; the
/// sharded controller implements this by taking the owning class's latch
/// around each query, so an evaluation walking a critical path holds at
/// most ONE class latch at a time.
///
/// Per-query locking is sound because both functions are *stable*: for any
/// v at or below the clock, every transaction that could straddle v has
/// already initiated (initiation timestamps are issued monotonically), so
/// later begins/finishes never change I^old(v), and C^late(v) — once
/// computable — is fixed. A class-by-class evaluation therefore returns
/// the same value an atomic snapshot would.
class ActivityTableSource {
 public:
  virtual ~ActivityTableSource() = default;

  /// The paper's I^old_c(m).
  virtual Timestamp OldestActiveAt(ClassId c, Timestamp m) const = 0;

  /// The paper's C^late_c(m); kBusy when not yet computable.
  virtual Result<Timestamp> LatestEndAt(ClassId c, Timestamp m) const = 0;
};

/// Source over a plain table vector (no locking — single-threaded tools
/// and tests).
class VectorTableSource : public ActivityTableSource {
 public:
  explicit VectorTableSource(const std::vector<ClassActivityTable>* tables)
      : tables_(tables) {}

  Timestamp OldestActiveAt(ClassId c, Timestamp m) const override {
    return (*tables_)[c].OldestActiveAt(m);
  }
  Result<Timestamp> LatestEndAt(ClassId c, Timestamp m) const override {
    return (*tables_)[c].LatestEndAt(m);
  }

 private:
  const std::vector<ClassActivityTable>* tables_;
};

/// Evaluates the paper's activity-link machinery over a transaction
/// hierarchy graph (a TstAnalysis over class nodes) backed by one
/// activity history per class:
///
///  * A_i^j(m) (§4.1): walk the critical path i -> ... -> j upward,
///    applying I^old at every class above i. A_i^i(m) = m.
///  * B_j^i(m) (§5.1): walk the critical path downward from j to i,
///    applying C^late at every class from j through i *inclusive* — the
///    composition the proofs of Properties 2.1/2.2 expand
///    (B_j^1(m) = C_1(...C_n(C_j(m))...)).
///  * E_s^i(m) (§5.1): walk the undirected critical path from s to i,
///    decomposed into maximal ascending and descending runs; ascending
///    runs apply A, descending runs apply B. E_s^s(m) = m.
///
/// B and E can be temporarily not computable (kBusy) when a C^late stabs a
/// time with an unresolved transaction; callers retry after commits.
class ActivityLinkEvaluator {
 public:
  /// Neither pointer is owned; `source` must serve every class node of
  /// `tst`.
  ActivityLinkEvaluator(const TstAnalysis* tst,
                        const ActivityTableSource* source);

  /// Convenience for single-threaded use: wraps `tables` in an owned
  /// VectorTableSource. `tables` must have one entry per class node.
  ActivityLinkEvaluator(const TstAnalysis* tst,
                        const std::vector<ClassActivityTable>* tables);

  /// A_i^j(m). InvalidArgument when no critical path i -> j exists.
  ///
  /// `memo`, when given, is the caller's buffer of one slot per class for
  /// a fixed (i, m): slot k holds A_i^k(m) once some walk from i at m has
  /// passed k, and kTimestampInfinity until then (never a real bound,
  /// since A_i^k(m) <= m). The walk reuses the slots it finds filled and
  /// fills the ones it evaluates, so repeated targets on one critical path
  /// query each class's table at most once. Sound because the values at
  /// or below the clock are stable (see ActivityTableSource).
  Result<Timestamp> A(ClassId i, ClassId j, Timestamp m,
                      Timestamp* memo = nullptr) const;

  /// B_j^i(m). InvalidArgument when no critical path i -> j exists;
  /// kBusy when a C^late along the descent is not yet computable.
  Result<Timestamp> B(ClassId j, ClassId i, Timestamp m) const;

  /// E_s^i(m). InvalidArgument when s and i are in different weak
  /// components of the THG; kBusy as for B.
  Result<Timestamp> E(ClassId s, ClassId i, Timestamp m) const;

 private:
  const TstAnalysis* tst_;
  const ActivityTableSource* source_;
  VectorTableSource owned_vector_source_;  // used by the vector constructor
};

}  // namespace hdd

#endif  // HDD_HDD_LINK_FUNCTIONS_H_
