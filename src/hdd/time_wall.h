#ifndef HDD_HDD_TIME_WALL_H_
#define HDD_HDD_TIME_WALL_H_

#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "hdd/link_functions.h"

namespace hdd {

/// A released time wall TW(m, s) (paper §5.1/§5.2): one consistency bound
/// per class. A read-only transaction served under this wall reads, from
/// any granule of a segment owned by class c, the latest version with
/// write timestamp below `bound[c]`; Theorem 2 guarantees the resulting
/// state is consistent and introduces no dependency cycle.
struct TimeWall {
  Timestamp m = kTimestampMin;
  ClassId s = 0;
  std::vector<Timestamp> bound;  // indexed by class, as computed
  /// The same cut indexed by segment (bound[c] for the class c owning the
  /// segment at release), filled when the controller releases the wall.
  /// Readers use this: a later Restructure renumbers and merges classes,
  /// but each segment keeps its bound, so the wall stays the consistent
  /// cut it was. (One bound per merged class, e.g. the minimum, is not a
  /// consistent cut in general.)
  std::vector<Timestamp> segment_bound;
  Timestamp release_time = kTimestampMin;
};

/// Computes a wall at time `m` anchored at class `s`: bound[i] = E_s^i(m).
/// Classes unreachable from s in the (weakly connected components of the)
/// THG get bound m — they share no transactions with s's component, so any
/// cut is consistent for them; m keeps the wall monotone.
/// Returns kBusy while some C^late on a descending run is not computable;
/// the caller should retry after the next transaction finishes.
Result<TimeWall> ComputeTimeWall(const ActivityLinkEvaluator& eval,
                                 int num_classes, ClassId s, Timestamp m);

/// Picks the anchor class the paper suggests ("one of the lowest levels"):
/// the class from which the most classes lie higher, so the maximum number
/// of wall components come from ascending (always-computable, never-stale)
/// runs. Ties break toward the smallest id.
ClassId PickWallAnchor(const TstAnalysis& tst);

}  // namespace hdd

#endif  // HDD_HDD_TIME_WALL_H_
