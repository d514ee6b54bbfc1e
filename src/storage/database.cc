#include "storage/database.h"

#include <memory>

namespace hdd {

Segment::Segment(std::string name, std::uint32_t count, Value initial)
    : name_(std::move(name)) {
  for (std::uint32_t i = 0; i < count; ++i) granules_.emplace_back(initial);
  size_.store(count, std::memory_order_release);
}

std::uint32_t Segment::Allocate(Value initial) {
  std::lock_guard<std::mutex> guard(latch_);
  granules_.emplace_back(initial);
  const auto count = static_cast<std::uint32_t>(granules_.size());
  size_.store(count, std::memory_order_release);
  return count - 1;
}

Granule& Segment::granule(std::uint32_t index) { return granules_[index]; }

const Granule& Segment::granule(std::uint32_t index) const {
  return granules_[index];
}

Database::Database(std::vector<std::string> segment_names,
                   std::uint32_t granules_per_segment, Value initial) {
  segments_.reserve(segment_names.size());
  for (auto& name : segment_names) {
    segments_.push_back(std::make_unique<Segment>(
        std::move(name), granules_per_segment, initial));
  }
}

Database::Database(int num_segments, std::uint32_t granules_per_segment,
                   Value initial) {
  segments_.reserve(num_segments);
  for (int s = 0; s < num_segments; ++s) {
    segments_.push_back(std::make_unique<Segment>(
        "D" + std::to_string(s), granules_per_segment, initial));
  }
}

Status Database::Validate(GranuleRef ref) const {
  if (ref.segment < 0 || ref.segment >= num_segments()) {
    return Status::InvalidArgument("segment out of range");
  }
  if (ref.index >= segment(ref.segment).size()) {
    return Status::InvalidArgument("granule index out of range");
  }
  return Status::OK();
}

std::size_t Database::TotalVersions() const {
  std::size_t total = 0;
  for (const auto& seg : segments_) {
    const std::uint32_t count = seg->size();
    std::lock_guard<std::mutex> guard(seg->latch());
    for (std::uint32_t i = 0; i < count; ++i) {
      total += seg->granule(i).num_versions();
    }
  }
  return total;
}

std::size_t Database::CollectGarbage(Timestamp horizon) {
  std::size_t removed = 0;
  for (int s = 0; s < num_segments(); ++s) {
    removed += CollectGarbageSegment(s, horizon);
  }
  return removed;
}

std::size_t Database::CollectGarbageSegment(SegmentId s, Timestamp horizon) {
  Segment& seg = segment(s);
  const std::uint32_t count = seg.size();
  std::lock_guard<std::mutex> guard(seg.latch());
  std::size_t removed = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    removed += seg.granule(i).Prune(horizon);
  }
  return removed;
}

}  // namespace hdd
