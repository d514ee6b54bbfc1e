// Runs one benchmark workload and prints its metrics: a table for people,
// then one JSON line (the last line of standard output) for tools.
//
//   hddbench --workload cross_read|durable_write --seed N
//            --seconds S --trace 0|1 [--out-dir DIR]

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: hddbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR]\n");
  return 2;
}

bool ParseUnsigned(const char* text, std::uint64_t* out) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') return false;
  *out = value;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  hddbench::RunConfig config;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    std::uint64_t number = 0;
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed" && ParseUnsigned(value, &number)) {
      config.seed = number;
    } else if (flag == "--seconds" && ParseUnsigned(value, &number) &&
               number > 0) {
      config.seconds = static_cast<double>(number);
    } else if (flag == "--trace" && ParseUnsigned(value, &number) &&
               number <= 1) {
      config.trace = number == 1;
    } else if (flag == "--out-dir") {
      config.out_dir = value;
    } else {
      return Usage();
    }
  }
  if (!have_workload || argc % 2 != 1) return Usage();

  const hddbench::RunOutput out = hddbench::RunBenchmark(config);
  if (!out.error.empty()) {
    std::fprintf(stderr, "hddbench: %s\n", out.error.c_str());
    return 2;
  }

  std::printf("workload %s seed %llu seconds %g trace %d\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0);
  std::printf("  %-30s %16s  %-9s %s\n", "metric", "value", "unit", "samples");
  for (const hddbench::Metric& m : out.metrics) {
    if (m.samples > 0) {
      std::printf("  %-30s %16.4f  %-9s n=%llu\n", m.name.c_str(), m.value,
                  m.unit.c_str(), static_cast<unsigned long long>(m.samples));
    } else {
      std::printf("  %-30s %16.4f  %-9s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  const double failed_frac =
      out.attempted > 0 ? static_cast<double>(out.failed) /
                              static_cast<double>(out.attempted)
                        : 0.0;
  std::printf("  %-30s %16.6f  %-9s %llu of %llu\n", "failed_frac", failed_frac,
              "frac", static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.attempted));
  if (!out.correct) {
    std::printf("CORRECTNESS FAILURE: %s\n", out.failure.c_str());
  }

  std::string json = "{\"correct\": ";
  json += out.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const hddbench::Metric& m : out.metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "hddbench: %s is not finite\n", m.name.c_str());
      return 2;
    }
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    json += first ? "" : ", ";
    json += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
            m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return out.correct ? 0 : 1;
}
