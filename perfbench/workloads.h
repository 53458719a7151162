// The benchmark's three workloads. Each one sets up its database several
// times (set-up time is reported as the median), warms up, measures for
// the requested seconds and checks every query's result against a
// reference computed directly from the base relations.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>

namespace perfbench {

struct BenchOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  /// Traced run: measure once untraced and once with client-side spans,
  /// each for half the seconds, and report the per-layer metrics.
  bool trace = false;
  /// Where the traced run writes its spans (Chrome trace_event JSON).
  std::string trace_path;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
};

/// Runs `options.workload`; false when no workload has that name.
bool RunWorkload(const BenchOptions& options, Outcome* outcome);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
