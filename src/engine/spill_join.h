#ifndef DBS3_ENGINE_SPILL_JOIN_H_
#define DBS3_ENGINE_SPILL_JOIN_H_

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "engine/operator_logic.h"
#include "storage/relation.h"
#include "storage/spill.h"
#include "storage/temp_index.h"

namespace dbs3 {

/// Knobs of the spilling join's partitioning scheme.
struct SpillJoinOptions {
  /// Build-side hash partitions per instance (and per recursion level).
  size_t fanout = 8;
  /// Recursion levels before an unsplittable partition (a single hot key
  /// defeats every rehash) falls back to the block nested-loop pass.
  size_t max_recursion = 6;
};

/// A memory-bounded dynamic hybrid hash join (per *Design Trade-offs for a
/// Robust Dynamic Hybrid Hash Join*), drop-in for PipelinedJoinLogic when
/// the query declared a memory budget.
///
/// Build: on the first activation of an instance, the inner fragment is
/// hash-partitioned into `fanout` partitions. Each retained build tuple is
/// charged one unit against the bound MemoryQuota; when a charge fails the
/// largest in-memory partition is spilled (tuples streamed to an unlinked
/// temp file, units released) and the build continues — the dynamic part:
/// how many partitions stay memory-resident is decided by the data, not up
/// front. In-memory partitions get a TempIndex; when everything fits the
/// probe path is row-identical to PipelinedJoinLogic (same probe, same
/// EmitConcat output shape: probe columns then inner columns).
///
/// Probe: tuples route to their partition by the same hash. In-memory
/// partitions probe and emit immediately (pipelined); probes of spilled
/// partitions are deferred to the partition's probe file.
///
/// Flush (OnFinish, sequential): each spilled build/probe file pair is
/// joined with bounded memory — the build side reloads under quota if it
/// now fits; otherwise it recursively repartitions with a level-salted
/// hash; at the recursion cap (or when a level fails to split) a block
/// nested-loop pass joins quota-sized build batches against rescans of the
/// probe file, which terminates under any skew.
///
/// Without a bound quota (BindExecution saw nullptr or limit 0 with no
/// pressure) nothing ever spills and the join is purely in-memory.
class SpillingHashJoinLogic : public OperatorLogic {
 public:
  SpillingHashJoinLogic(const Relation* inner, size_t inner_column,
                        size_t probe_column,
                        SpillJoinOptions options = SpillJoinOptions{});
  ~SpillingHashJoinLogic() override;

  void BindExecution(const ExecResources& resources) override;
  Status Prepare(size_t num_instances) override;
  /// Builds the instance's partitions on its first activation, then probes
  /// resident partitions and defers probes of spilled ones to disk.
  void OnDataBatch(size_t instance, std::span<Tuple> tuples,
                   Emitter* out) override;
  void OnFinish(size_t instance, Emitter* out) override;
  Status error() const override;
  std::string name() const override { return "spill-join"; }
  NodeEstimate Estimate(const CostModel& cost_model,
                        double input_tuples) const override;

 private:
  /// One build partition of one instance. `spilled` is decided during the
  /// build (inside the instance's call_once) and read-only afterwards;
  /// probe-file appends are the only post-build mutation and take the
  /// instance lock.
  struct Partition {
    Fragment build;                    ///< In-memory build rows.
    std::unique_ptr<TempIndex> index;  ///< Over `build`, post-build.
    bool spilled = false;
    std::unique_ptr<SpillFile> build_file;
    std::unique_ptr<SpillFile> probe_file;
    uint64_t charged = 0;  ///< Quota units held by `build`.
  };

  struct InstanceState {
    Mutex mu{"SpillingHashJoinLogic::instance_mu"};
    std::once_flag built;
    /// Sized/filled inside the call_once; structurally immutable after.
    std::vector<Partition> parts;
    Status error GUARDED_BY(mu);
  };

  /// The partition of `v` at recursion `level`. Level-salted and remixed so
  /// it is independent of the upstream repartition edge's hash (which
  /// already constrained every key this instance sees).
  size_t PartitionOf(const Value& v, size_t level) const;

  void EnsureBuilt(size_t instance);
  void BuildPartitions(size_t instance);
  /// Spills the largest in-memory partition with build rows; when none has
  /// any, marks `current` itself spilled. Returns non-OK on IO failure.
  Status SpillVictim(InstanceState& state, size_t current);
  Status SpillPartition(Partition& part);

  void RecordError(InstanceState& state, Status status) EXCLUDES(state.mu);

  /// Joins one spilled build/probe file pair with bounded memory.
  Status ProcessSpilledPair(size_t instance, SpillFile* build_file,
                            SpillFile* probe_file, size_t level,
                            Emitter* out);
  /// Streams `probe_file` against an in-memory build fragment + index.
  Status StreamProbeFile(size_t instance, SpillFile* probe_file,
                         const Fragment& build, const TempIndex& index,
                         Emitter* out);
  /// Splits the pair into `fanout` sub-pairs at `level` and recurses.
  Status Repartition(size_t instance, SpillFile* build_file,
                     SpillFile* probe_file, size_t level, Emitter* out);
  /// Quota-sized build batches, each joined against a full probe rescan.
  Status BlockNestedLoop(size_t instance, SpillFile* build_file,
                         SpillFile* probe_file, Emitter* out);

  /// Publishes the counters' growth since the last publish into the bound
  /// metrics registry (called from the sequential OnFinish).
  void PublishMetrics();

  const Relation* inner_;
  size_t inner_column_;
  size_t probe_column_;
  SpillJoinOptions options_;
  ExecResources resources_;
  SpillCounters counters_;
  /// spill.* counter values already published to the metrics registry.
  uint64_t published_bytes_written_ = 0;
  uint64_t published_bytes_read_ = 0;
  uint64_t published_partitions_ = 0;
  uint64_t published_recursions_ = 0;
  std::atomic<uint64_t> partitions_spilled_{0};
  std::atomic<uint64_t> recursions_{0};
  std::vector<std::unique_ptr<InstanceState>> instances_;
};

}  // namespace dbs3

#endif  // DBS3_ENGINE_SPILL_JOIN_H_
