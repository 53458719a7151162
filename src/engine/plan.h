#ifndef DBS3_ENGINE_PLAN_H_
#define DBS3_ENGINE_PLAN_H_

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/trace.h"
#include "engine/operation.h"
#include "engine/operator_logic.h"
#include "engine/strategy.h"
#include "storage/partitioner.h"

namespace dbs3 {

/// Whether an operation is started by one control activation per instance
/// (triggered) or fed one tuple at a time (pipelined). Section 2, Figures
/// 2 and 3.
enum class ActivationMode { kTriggered, kPipelined };

const char* ActivationModeName(ActivationMode mode);

/// Per-node scheduling knobs. Defaults are safe; the scheduler (src/sched)
/// fills them from the query's complexity estimates.
struct PlanNodeParams {
  /// Thread pool size (degree of parallelism of this operation).
  size_t threads = 1;
  Strategy strategy = Strategy::kRandom;
  /// Internal activation cache size (consumer-side batching).
  size_t cache_size = 1;
  /// Tuples per emitted data activation (producer-side batching). The
  /// scheduler writes its derived grain here (step 5); hand-built plans
  /// keep 1, the paper-faithful per-tuple mode. Larger values amortize
  /// queue synchronization over the chunk. Clamped to the consumer's queue
  /// capacity when that queue is bounded.
  size_t chunk_size = 1;
  /// Per-queue capacity in tuple units; 0 = unbounded.
  size_t queue_capacity = 0;
  /// Per-instance cost estimates (for LPT). Empty = uniform.
  std::vector<double> cost_estimates;
  /// Prefer main queues before secondary queues (ablation knob).
  bool use_main_queues = true;
};

/// One node of a Lera-par dataflow graph.
struct PlanNode {
  std::string name;
  ActivationMode mode = ActivationMode::kTriggered;
  /// Number of operation instances (one per input fragment).
  size_t instances = 1;
  std::unique_ptr<OperatorLogic> logic;

  /// Output data edge (-1 = terminal node).
  int output = -1;
  DataOutput::Route route = DataOutput::Route::kSameInstance;
  size_t route_column = 0;
  std::optional<Partitioner> route_partitioner;

  PlanNodeParams params;

  /// Node ids of data producers (derived from Connect calls).
  std::vector<size_t> producers;
};

/// A parallel execution plan: a dataflow graph of operators connected by
/// activator edges (Lera-par, Section 2). Nodes are added and wired by the
/// plan builders (src/dbs3) or directly by tests.
class Plan {
 public:
  Plan() = default;

  Plan(const Plan&) = delete;
  Plan& operator=(const Plan&) = delete;
  Plan(Plan&&) = default;
  Plan& operator=(Plan&&) = default;

  /// Adds a node and returns its id.
  size_t AddNode(std::string name, ActivationMode mode, size_t instances,
                 std::unique_ptr<OperatorLogic> logic);

  /// Wires `from`'s output to `to` with same-instance routing
  /// (producer instance i feeds consumer instance i).
  Status ConnectSameInstance(size_t from, size_t to);

  /// Wires `from`'s output to `to`, repartitioning: each emitted tuple goes
  /// to the consumer instance `partitioner.FragmentOf(tuple[column])`.
  /// `partitioner.degree()` must equal `to`'s instance count.
  Status ConnectByColumn(size_t from, size_t to, size_t column,
                         Partitioner partitioner);

  /// Scheduling knobs of a node.
  PlanNodeParams& params(size_t node) { return nodes_[node].params; }
  const PlanNodeParams& params(size_t node) const {
    return nodes_[node].params;
  }

  /// Observability knobs for executing this plan (filled from
  /// ScheduleOptions::trace by the scheduler, or set directly by
  /// tests/benches that bypass it).
  TraceOptions& trace_options() { return trace_options_; }
  const TraceOptions& trace_options() const { return trace_options_; }

  size_t num_nodes() const { return nodes_.size(); }
  const PlanNode& node(size_t i) const { return nodes_[i]; }
  PlanNode& node(size_t i) { return nodes_[i]; }

  /// Structural checks: modes vs producers, routing degrees, acyclicity,
  /// thread/instance counts.
  Status Validate() const;

  /// Node ids in topological (producer-before-consumer) order.
  Result<std::vector<size_t>> TopologicalOrder() const;

  /// Multi-line plan rendering for logs and examples.
  std::string ToString() const;

 private:
  std::vector<PlanNode> nodes_;
  TraceOptions trace_options_;
};

}  // namespace dbs3

#endif  // DBS3_ENGINE_PLAN_H_
