#include "hdd/link_functions.h"

#include <cassert>

namespace hdd {

ActivityLinkEvaluator::ActivityLinkEvaluator(const TstAnalysis* tst,
                                             const ActivityTableSource* source)
    : tst_(tst), source_(source), owned_vector_source_(nullptr) {}

ActivityLinkEvaluator::ActivityLinkEvaluator(
    const TstAnalysis* tst, const std::vector<ClassActivityTable>* tables)
    : tst_(tst), source_(&owned_vector_source_), owned_vector_source_(tables) {
  assert(static_cast<int>(tables->size()) == tst_->graph().num_nodes());
}

Result<Timestamp> ActivityLinkEvaluator::A(ClassId i, ClassId j, Timestamp m,
                                           Timestamp* memo) const {
  if (i == j) return m;
  if (!tst_->Higher(j, i)) {
    return Status::InvalidArgument("no critical path for A");
  }
  if (memo != nullptr && memo[j] != kTimestampInfinity) return memo[j];
  Timestamp value = m;
  for (ClassId u = i; u != j;) {
    u = tst_->NextOnCriticalPath(u, j);
    if (memo != nullptr && memo[u] != kTimestampInfinity) {
      value = memo[u];
      continue;
    }
    value = source_->OldestActiveAt(u, value);
    if (memo != nullptr) memo[u] = value;
  }
  return value;
}

Result<Timestamp> ActivityLinkEvaluator::B(ClassId j, ClassId i,
                                           Timestamp m) const {
  if (i != j && !tst_->Higher(j, i)) {
    return Status::InvalidArgument("no critical path for B");
  }
  Timestamp value = m;
  // Apply C^late from the top class j down to — but excluding — the bottom
  // class i, pairing each C^late_k against the I^old_k that A applies:
  // that pairing is what makes Properties 2.1 (A(B(m)) >= m) and 2.2
  // (A(B(m)-e) < m) hold class by class.
  for (ClassId u = j; u != i; u = tst_->PrevOnCriticalPath(i, u)) {
    HDD_ASSIGN_OR_RETURN(value, source_->LatestEndAt(u, value));
  }
  return value;
}

Result<Timestamp> ActivityLinkEvaluator::E(ClassId s, ClassId i,
                                           Timestamp m) const {
  auto ucp = tst_->Ucp(s, i);
  if (!ucp.has_value()) {
    return Status::InvalidArgument("classes in different components");
  }
  Timestamp value = m;
  std::size_t pos = 0;
  while (pos + 1 < ucp->size()) {
    const ClassId here = (*ucp)[pos];
    const ClassId next = (*ucp)[pos + 1];
    if (tst_->IsCriticalArc(here, next)) {
      // Ascending run: apply I^old at each class strictly above the run's
      // start, as A does.
      while (pos + 1 < ucp->size() &&
             tst_->IsCriticalArc((*ucp)[pos], (*ucp)[pos + 1])) {
        value = source_->OldestActiveAt((*ucp)[pos + 1], value);
        ++pos;
      }
    } else {
      assert(tst_->IsCriticalArc(next, here));
      // Descending run: apply C^late at every class from the run's top
      // down to — but excluding — the run's bottom, as B does.
      HDD_ASSIGN_OR_RETURN(value, source_->LatestEndAt(here, value));
      ++pos;  // now standing on the class below the run's top
      while (pos + 1 < ucp->size() &&
             tst_->IsCriticalArc((*ucp)[pos + 1], (*ucp)[pos])) {
        HDD_ASSIGN_OR_RETURN(value, source_->LatestEndAt((*ucp)[pos], value));
        ++pos;
      }
    }
  }
  return value;
}

}  // namespace hdd
