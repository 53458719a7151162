#include "sched/scheduler.h"

#include <algorithm>
#include <cmath>

#include "sched/subquery.h"

namespace dbs3 {

namespace {

/// Step 5's rule for a consumer estimated to receive `tuples` over
/// `instances` queues with `threads` consumer threads: the largest chunk
/// whose Eq. 3 skew-overhead bound (threads-1)*c/tuples stays within
/// kDerivedChunkSkewBound, at most tuples/instances, clamped to
/// [1, kMaxDerivedChunk]. One thread has no load to balance, so only the
/// per-instance term applies.
size_t DerivedChunkSize(double tuples, size_t instances, size_t threads) {
  double c = tuples / static_cast<double>(instances);
  if (threads > 1) {
    c = std::min(c, kDerivedChunkSkewBound * tuples /
                        static_cast<double>(threads - 1));
  }
  if (!(c >= 1.0)) return 1;
  return static_cast<size_t>(
      std::min(std::floor(c), static_cast<double>(kMaxDerivedChunk)));
}

}  // namespace

std::string ScheduleReport::ToString() const {
  std::string out = "schedule: " + std::to_string(total_threads) +
                    " threads, total work " + std::to_string(total_work) +
                    "\n";
  for (size_t i = 0; i < threads.size(); ++i) {
    out += "  node " + std::to_string(i) + ": work " +
           std::to_string(estimates[i].total_work) + ", threads " +
           std::to_string(threads[i]) + ", " +
           StrategyName(strategies[i]) + ", chunk " +
           std::to_string(chunk_sizes[i]) + "\n";
  }
  return out;
}

double MultiUserUtilization(size_t live_queries) {
  return 1.0 / static_cast<double>(std::max<size_t>(1, live_queries));
}

ScheduleOptions ApplyUtilization(ScheduleOptions options, double factor) {
  factor = std::clamp(factor, 1e-9, 1.0);
  if (options.total_threads > 0) {
    options.total_threads = std::max<size_t>(
        1, static_cast<size_t>(std::lround(
               static_cast<double>(options.total_threads) * factor)));
  } else {
    options.utilization = std::max(options.utilization * factor, 1e-9);
  }
  return options;
}

Result<ScheduleReport> ScheduleQuery(Plan& plan, const CostModel& cost_model,
                                     const ScheduleOptions& options) {
  DBS3_RETURN_IF_ERROR(plan.Validate());
  if (options.processors == 0) {
    return Status::InvalidArgument("processors must be >= 1");
  }
  if (options.utilization <= 0.0 || options.utilization > 1.0) {
    return Status::InvalidArgument("utilization must be in (0, 1]");
  }
  DBS3_ASSIGN_OR_RETURN(std::vector<size_t> order, plan.TopologicalOrder());

  ScheduleReport report;
  report.estimates.resize(plan.num_nodes());
  report.threads.assign(plan.num_nodes(), 1);
  report.strategies.assign(plan.num_nodes(), Strategy::kRandom);

  // Estimate every node, propagating output cardinalities along data edges
  // (a pipelined node's activation count is the sum of its producers'
  // estimated outputs).
  std::vector<double> incoming(plan.num_nodes(), 0.0);
  for (size_t i : order) {
    const PlanNode& node = plan.node(i);
    report.estimates[i] = node.logic->Estimate(cost_model, incoming[i]);
    report.total_work += report.estimates[i].total_work;
    if (node.output >= 0) {
      incoming[static_cast<size_t>(node.output)] +=
          report.estimates[i].output_tuples;
    }
  }

  // Step 1: number of threads for the query. The Wilschut optimum minimizes
  // startup_cost * n + W / n, i.e. n* = sqrt(W / startup_cost); it is then
  // reduced by the multi-user utilization factor and capped by the
  // processor count.
  size_t n = options.total_threads;
  if (n == 0) {
    const double opt = std::sqrt(
        std::max(report.total_work, 1.0) / std::max(options.startup_cost, 1e-9));
    n = static_cast<size_t>(std::lround(
        std::max(1.0, opt * options.utilization)));
  }
  n = std::clamp<size_t>(n, 1, options.processors);
  report.total_threads = n;

  // Steps 2-3: this plan is one pipelined chain graph (materialization
  // boundaries produce separate plans), so the subquery equations reduce to
  // splitting n over the operators proportionally to complexity.
  std::vector<double> complexities(plan.num_nodes());
  for (size_t i = 0; i < plan.num_nodes(); ++i) {
    complexities[i] = report.estimates[i].total_work;
  }
  report.threads = SplitChainThreads(complexities, n);

  // The degree of partitioning must be >= the degree of parallelism: more
  // threads than instances would leave threads permanently idle for a
  // triggered operation, so cap per node.
  for (size_t i = 0; i < plan.num_nodes(); ++i) {
    report.threads[i] = std::min(report.threads[i], plan.node(i).instances);
  }

  // Step 4: consumption strategy. LPT pays off exactly where the analysis
  // of Section 4.1 says skew hurts: triggered operations (few activations)
  // with uneven per-instance work.
  for (size_t i = 0; i < plan.num_nodes(); ++i) {
    const PlanNode& node = plan.node(i);
    Strategy s = Strategy::kRandom;
    if (options.force_strategy.has_value()) {
      s = *options.force_strategy;
    } else if (node.mode == ActivationMode::kTriggered) {
      const std::vector<double>& w = report.estimates[i].per_instance_work;
      if (!w.empty()) {
        double max = 0.0, sum = 0.0;
        for (double v : w) {
          max = std::max(max, v);
          sum += v;
        }
        const double mean = sum / static_cast<double>(w.size());
        if (mean > 0.0 && max / mean > options.lpt_skew_threshold) {
          s = Strategy::kLpt;
        }
      }
    }
    report.strategies[i] = s;
  }

  // Step 5: grain of parallelism. A producer's chunk is what its consumer
  // receives as one data activation, so it is sized from the consumer's
  // estimated input, instance count and thread count. A pinned
  // options.chunk_size overrides it for every node; a terminal node emits
  // nothing downstream and keeps 1.
  report.chunk_sizes.assign(plan.num_nodes(), 1);
  for (size_t i = 0; i < plan.num_nodes(); ++i) {
    const int output = plan.node(i).output;
    if (options.chunk_size > 0) {
      report.chunk_sizes[i] = options.chunk_size;
    } else if (output >= 0) {
      const size_t consumer = static_cast<size_t>(output);
      report.chunk_sizes[i] =
          DerivedChunkSize(incoming[consumer], plan.node(consumer).instances,
                           report.threads[consumer]);
    }
  }

  // Write the decisions into the plan.
  for (size_t i = 0; i < plan.num_nodes(); ++i) {
    PlanNodeParams& params = plan.params(i);
    params.threads = report.threads[i];
    params.strategy = report.strategies[i];
    params.cache_size = options.cache_size;
    params.chunk_size = report.chunk_sizes[i];
    params.queue_capacity = options.queue_capacity;
    params.cost_estimates = report.estimates[i].per_instance_work;
  }
  plan.trace_options() = options.trace;
  return report;
}

}  // namespace dbs3
