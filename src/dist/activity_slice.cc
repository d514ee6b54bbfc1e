#include "dist/activity_slice.h"

#include "common/byte_codec.h"

namespace hdd {

void EncodeActivitySlice(const ActivitySlice& slice, std::string* out) {
  PutU32(out, static_cast<std::uint32_t>(slice.class_id));
  PutU64(out, slice.frontier);
  PutU32(out, static_cast<std::uint32_t>(slice.active.size()));
  for (const Timestamp init : slice.active) PutU64(out, init);
  PutU32(out, static_cast<std::uint32_t>(slice.finished.size()));
  for (const auto& [init, end] : slice.finished) {
    PutU64(out, init);
    PutU64(out, end);
  }
}

Result<ActivitySlice> DecodeActivitySlice(std::string_view* in) {
  ActivitySlice slice;
  std::uint32_t class_id = 0;
  std::uint32_t n_active = 0;
  if (!GetU32(in, &class_id) || !GetU64(in, &slice.frontier) ||
      !GetU32(in, &n_active)) {
    return Status::Corruption("activity slice: truncated header");
  }
  slice.class_id = static_cast<ClassId>(class_id);
  slice.active.reserve(n_active);
  for (std::uint32_t i = 0; i < n_active; ++i) {
    Timestamp init = 0;
    if (!GetU64(in, &init)) {
      return Status::Corruption("activity slice: truncated active list");
    }
    slice.active.push_back(init);
  }
  std::uint32_t n_finished = 0;
  if (!GetU32(in, &n_finished)) {
    return Status::Corruption("activity slice: truncated finished count");
  }
  slice.finished.reserve(n_finished);
  for (std::uint32_t i = 0; i < n_finished; ++i) {
    Timestamp init = 0;
    Timestamp end = 0;
    if (!GetU64(in, &init) || !GetU64(in, &end)) {
      return Status::Corruption("activity slice: truncated finished list");
    }
    slice.finished.emplace_back(init, end);
  }
  return slice;
}

ClassActivityTable BuildSliceTable(const ActivitySlice& slice) {
  ClassActivityTable table;
  for (const Timestamp init : slice.active) table.OnBegin(init);
  for (const auto& [init, end] : slice.finished) {
    table.OnBegin(init);
    table.OnFinish(init, end);
  }
  return table;
}

}  // namespace hdd
