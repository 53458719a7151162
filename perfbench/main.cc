// The repository benchmark program:
//
//   dbs3_perfbench --workload <dss_mix|lookup_flood|budget_mixed>
//                  --seed <n> --seconds <s> --trace <0|1> [--trace-out <path>]
//
// Prints a human-readable summary on stderr and, as the last line of
// stdout, one JSON object: {"correct", "attempted", "failed", "metrics"}.
// Untraced runs report the end-to-end metrics; traced runs (--trace 1)
// report the per-layer metrics and the tracing overhead.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

void PrintMetrics(const std::map<std::string, perfbench::Metric>& metrics,
                  std::string* json) {
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    const double value = std::isfinite(metric.value) ? metric.value : 0.0;
    std::fprintf(stderr, "  %-40s %16.6f %s\n", name.c_str(), value,
                 metric.unit.c_str());
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", name.c_str(), value,
                  metric.unit.c_str());
    *json += buf;
    first = false;
  }
}

int Usage() {
  std::fprintf(stderr,
               "usage: dbs3_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <path>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::BenchOptions options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--trace-out") {
      options.trace_path = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || options.workload.empty() || !(options.seconds > 0)) {
    return Usage();
  }

  perfbench::Outcome outcome;
  if (!perfbench::RunWorkload(options, &outcome)) {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }
  std::fprintf(stderr, "%s seed=%llu: attempted %llu, failed %llu, %s\n",
               options.workload.c_str(),
               static_cast<unsigned long long>(options.seed),
               static_cast<unsigned long long>(outcome.attempted),
               static_cast<unsigned long long>(outcome.failed),
               outcome.correct ? "correct" : "INCORRECT");
  std::string json = "{\"correct\": ";
  json += outcome.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(outcome.attempted);
  json += ", \"failed\": " + std::to_string(outcome.failed);
  json += ", \"metrics\": {";
  PrintMetrics(options.trace ? outcome.per_layer : outcome.end_to_end, &json);
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
