#include "dist/dist_node.h"

#include <utility>
#include <vector>

#include "dist/dist_message.h"

namespace hdd {

Result<std::string> DistNode::Handle(int from, const std::string& request) {
  (void)from;
  switch (PeekDistMsgType(request)) {
    case DistMsgType::kActivityReq: {
      HDD_ASSIGN_OR_RETURN(ActivityReq req, DecodeActivityReq(request));
      std::vector<ActivitySlice> slices;
      slices.reserve(req.classes.size());
      for (const ClassId c : req.classes) {
        HDD_ASSIGN_OR_RETURN(ActivitySlice slice,
                             cc_->ExportActivitySlice(c, req.frontier));
        slices.push_back(std::move(slice));
      }
      return EncodeSlices(slices);
    }
    case DistMsgType::kSnapshotReq: {
      HDD_ASSIGN_OR_RETURN(SnapshotReq req, DecodeSnapshotReq(request));
      HDD_ASSIGN_OR_RETURN(std::vector<Version> versions,
                           cc_->ExportVersions(req.segment, req.index));
      // Cross-node read barrier: a committed version is marked in memory
      // in the same latch window that appends its commit record, but the
      // one-log argument that makes local acked reads crash-proof does
      // not span nodes. Syncing this node's WAL before
      // the snapshot leaves guarantees every shipped committed version
      // survives recovery — a requester's acked result never dangles.
      HDD_RETURN_IF_ERROR(cc_->AwaitWalReadStable());
      return EncodeVersions(versions);
    }
    case DistMsgType::kPrepareReq: {
      HDD_ASSIGN_OR_RETURN(PrepareReq req, DecodePrepareReq(request));
      HDD_RETURN_IF_ERROR(
          cc_->PrepareExternal(req.segment, req.txn, req.init_ts, req.writes));
      return std::string();
    }
    case DistMsgType::kCommitReq: {
      HDD_ASSIGN_OR_RETURN(TxnSegmentReq req, DecodeTxnSegmentReq(request));
      HDD_RETURN_IF_ERROR(
          cc_->CommitExternal(req.segment, req.txn, req.init_ts));
      return std::string();
    }
    case DistMsgType::kAbortReq: {
      HDD_ASSIGN_OR_RETURN(TxnSegmentReq req, DecodeTxnSegmentReq(request));
      HDD_RETURN_IF_ERROR(
          cc_->AbortExternal(req.segment, req.txn, req.init_ts));
      return std::string();
    }
    case DistMsgType::kClockTickReq: {
      if (clock_ == nullptr) {
        return Status::FailedPrecondition("dist: node hosts no clock service");
      }
      return EncodeTimestamp(clock_->Tick());
    }
    case DistMsgType::kClockNowReq: {
      if (clock_ == nullptr) {
        return Status::FailedPrecondition("dist: node hosts no clock service");
      }
      return EncodeTimestamp(clock_->Now());
    }
  }
  return Status::InvalidArgument("dist: unknown message type");
}

}  // namespace hdd
