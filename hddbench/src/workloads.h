#ifndef HDDBENCH_WORKLOADS_H_
#define HDDBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace hddbench {

struct RunConfig {
  std::string workload;  // cross_read | durable_write
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// false: the plain run (end-to-end metrics, no decorator is built).
  /// true: a plain phase for the overhead baseline, then the traced phase
  /// (per-layer metrics).
  bool trace = false;
  /// Where the traced run writes its span file.
  std::string out_dir = ".bench_build/hddbench-out";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// Observations behind a percentile (0 for other metrics).
  std::uint64_t samples = 0;
};

struct RunOutput {
  /// Set when the run could not be measured (setup failed, a percentile
  /// lacked support); no result is printed then.
  std::string error;
  /// Correctness gate outcome; `failure` says which check failed.
  bool correct = true;
  std::string failure;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
};

RunOutput RunBenchmark(const RunConfig& config);

}  // namespace hddbench

#endif  // HDDBENCH_WORKLOADS_H_
