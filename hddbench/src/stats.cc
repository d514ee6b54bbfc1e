#include "stats.h"

#include <algorithm>
#include <fstream>
#include <string>
#include <unordered_map>
#include <utility>

namespace hddbench {

namespace {

// Weighted nearest rank over (value, weight) pairs sorted by value.
std::optional<double> WeightedQuantile(
    const std::vector<std::pair<double, double>>& sorted, double q) {
  if (sorted.empty()) return std::nullopt;
  double total = 0.0;
  for (const auto& entry : sorted) total += entry.second;
  const double target = q * total;
  double cumulative = 0.0;
  std::size_t rank = sorted.size() - 1;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    cumulative += sorted[i].second;
    if (cumulative >= target) {
      rank = i;
      break;
    }
  }
  const double value = sorted[rank].first;
  const auto beyond =
      sorted.end() - std::upper_bound(sorted.begin(), sorted.end(),
                                      std::make_pair(value, 1e300));
  if (static_cast<std::size_t>(beyond) < kMinBeyond) return std::nullopt;
  return value;
}

}  // namespace

std::optional<double> Quantile(std::vector<double> samples, double q) {
  std::vector<std::pair<double, double>> weighted;
  weighted.reserve(samples.size());
  for (double v : samples) weighted.emplace_back(v, 1.0);
  std::sort(weighted.begin(), weighted.end());
  return WeightedQuantile(weighted, q);
}

std::optional<double> Quantile(const std::vector<const Reservoir*>& parts,
                               double q) {
  std::vector<std::pair<double, double>> weighted;
  for (const Reservoir* part : parts) {
    if (part->samples().empty()) continue;
    const double weight = static_cast<double>(part->count()) /
                          static_cast<double>(part->samples().size());
    for (double v : part->samples()) weighted.emplace_back(v, weight);
  }
  std::sort(weighted.begin(), weighted.end());
  return WeightedQuantile(weighted, q);
}

std::uint64_t TotalCount(const std::vector<const Reservoir*>& parts) {
  std::uint64_t total = 0;
  for (const Reservoir* part : parts) total += part->count();
  return total;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n == 0) return 0.0;
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

std::uint64_t StealTicks() {
  // First line: "cpu user nice system idle iowait irq softirq steal ...".
  std::ifstream stat("/proc/stat");
  std::string label;
  std::uint64_t field = 0;
  stat >> label;
  if (label != "cpu") return 0;
  for (int i = 0; i < 8 && stat >> field; ++i) {
    if (i == 7) return field;
  }
  return 0;
}

std::vector<std::size_t> QuietWindows(const std::vector<std::uint64_t>& steal) {
  if (steal.empty()) return {};
  std::vector<std::uint64_t> sorted = steal;
  std::sort(sorted.begin(), sorted.end());
  const std::uint64_t threshold = sorted[(sorted.size() - 1) / 4];
  std::vector<std::size_t> quiet;
  for (std::size_t w = 0; w < steal.size(); ++w) {
    if (steal[w] <= threshold) quiet.push_back(w);
  }
  return quiet;
}

WindowedQuantile MedianOverWindows(
    const std::vector<std::vector<const Reservoir*>>& windows, double q) {
  WindowedQuantile out;
  for (const auto& window : windows) out.samples += TotalCount(window);
  const std::size_t n = windows.size();
  for (std::size_t groups = n; groups >= 1; --groups) {
    if (n % groups != 0) continue;
    const std::size_t width = n / groups;
    std::vector<double> values;
    for (std::size_t g = 0; g < groups; ++g) {
      std::vector<const Reservoir*> parts;
      for (std::size_t w = g * width; w < (g + 1) * width; ++w) {
        parts.insert(parts.end(), windows[w].begin(), windows[w].end());
      }
      const std::optional<double> value = Quantile(parts, q);
      if (!value.has_value()) break;
      values.push_back(*value);
    }
    if (values.size() == groups) {
      out.value = Median(values);
      out.groups = groups;
      return out;
    }
  }
  return out;
}

std::vector<std::int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index_of;
  index_of.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) index_of[spans[i].id] = i;

  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& span : spans) {
    if (span.parent == 0) continue;
    const auto it = index_of.find(span.parent);
    if (it == index_of.end()) continue;
    const Span& parent = spans[it->second];
    const std::int64_t lo = std::max(span.start_ns, parent.start_ns);
    const std::int64_t hi = std::min(span.end_ns, parent.end_ns);
    if (lo < hi) children[it->second].emplace_back(lo, hi);
  }

  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t run_lo = 0;
    std::int64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : kids) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

}  // namespace hddbench
