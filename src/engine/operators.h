#ifndef DBS3_ENGINE_OPERATORS_H_
#define DBS3_ENGINE_OPERATORS_H_

#include <cstddef>
#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "engine/operator_logic.h"
#include "engine/vector/pred.h"
#include "storage/relation.h"
#include "storage/spill.h"
#include "storage/temp_index.h"

namespace dbs3 {

/// A predicate over tuples as an arbitrary function — the engine's fully
/// general row form.
using TuplePredicate = std::function<bool(const Tuple&)>;

/// The predicate an operator runs: always the row form, plus — when the
/// predicate is one of the comparison shapes the vector kernels understand —
/// its lowered PredExpr. Filter operators run the batch kernels when `expr`
/// is present and the activation carries enough tuples; the row form remains
/// the single-tuple / custom-predicate path (chunk_size=1 stays the
/// paper-faithful per-tuple mode automatically).
struct Predicate {
  TuplePredicate row;
  std::optional<PredExpr> expr;

  Predicate() = default;

  /// An arbitrary row predicate: stays on the per-tuple path.
  template <typename F,
            typename = std::enable_if_t<
                std::is_invocable_r_v<bool, F, const Tuple&> &&
                !std::is_same_v<std::decay_t<F>, Predicate> &&
                !std::is_same_v<std::decay_t<F>, PredExpr>>>
  Predicate(F fn) : row(std::move(fn)) {}  // NOLINT: implicit by design.

  /// A lowered comparison: runs on the batch kernels. The row form is
  /// derived from the expression, so both paths share one definition of
  /// truth.
  Predicate(PredExpr e);  // NOLINT: implicit by design.
};

/// Predicate `tuple[column] == value`.
Predicate ColumnEquals(size_t column, Value value);

/// Predicate `lo <= tuple[column] <= hi` (int column).
Predicate ColumnBetween(size_t column, int64_t lo, int64_t hi);

/// Matches every tuple.
Predicate MatchAll();

/// Triggered selection: the control activation for instance i scans fragment
/// i of the input relation and emits every tuple matching the predicate
/// (the `filter` of Figure 1/2).
class FilterLogic : public OperatorLogic {
 public:
  /// `input` must outlive the execution. `selectivity` is the estimated
  /// fraction of tuples the predicate keeps (compiler statistic, used only
  /// for scheduling). A lowered predicate runs the tiled batch kernel.
  ///
  /// `columns` prunes the output: the predicate still sees the whole base
  /// row, but only the listed base columns are emitted, in list order
  /// (via Emitter::EmitSelect). std::nullopt, or a list that is the
  /// identity of the input's schema, emits the whole row (EmitCopy); an
  /// empty list emits zero-width rows.
  FilterLogic(const Relation* input, Predicate predicate,
              double selectivity = 1.0,
              std::optional<std::vector<size_t>> columns = std::nullopt);

  Status Prepare(size_t num_instances) override;
  void OnTrigger(size_t instance, Emitter* out) override;
  std::string name() const override { return "filter"; }
  NodeEstimate Estimate(const CostModel& cost_model,
                        double input_tuples) const override;

 private:
  /// Scans fragment `instance`, calling emit(row) for every match.
  template <typename EmitFn>
  void ScanFragment(size_t instance, EmitFn emit) const;

  const Relation* input_;
  Predicate predicate_;
  double selectivity_;
  /// Emitted base columns; nullopt = the whole row.
  std::optional<std::vector<size_t>> columns_;
};

/// Triggered redistribution: the control activation for instance i scans
/// fragment i of the input relation and emits every tuple; the plan edge
/// repartitions them to the consumer (the `transmit` of Figure 11).
class TransmitLogic : public OperatorLogic {
 public:
  explicit TransmitLogic(const Relation* input);

  Status Prepare(size_t num_instances) override;
  void OnTrigger(size_t instance, Emitter* out) override;
  std::string name() const override { return "transmit"; }
  NodeEstimate Estimate(const CostModel& cost_model,
                        double input_tuples) const override;

 private:
  const Relation* input_;
};

/// Join algorithms. The paper uses nested loop when the join algorithm has
/// no impact (to slow down small-database runs) and an on-the-fly temporary
/// index (a TempIndex hash index over each inner fragment) for the 500K
/// databases; the temporary index is the default.
enum class JoinAlgorithm { kNestedLoop, kTempIndex };

const char* JoinAlgorithmName(JoinAlgorithm a);

/// The hash join (AssocJoin node, Figure 11): the inner operand is bound
/// statically; each data activation conveys a span of probe tuples, joined
/// against the inner fragment of the receiving instance. Output rows are
/// probe columns then inner columns. IdealJoin (TriggeredJoinLogic) runs
/// this same join; only the probe tuples' arrival differs.
///
/// kNestedLoop holds no build state: it charges nothing and never spills.
///
/// kTempIndex builds each instance's index on its first activation, and
/// which build runs is decided by one fact: does the inner fragment fit the
/// bound MemoryQuota? The build charges the whole fragment in one TryCharge
/// (no quota, or a limit-0 one, always fits).
///
/// * It fits: the fragment is indexed in place, no copy. The units are
///   held until OnFinish (or destruction, on a cancelled run).
/// * It does not: a memory-bounded dynamic hybrid hash join (per *Design
///   Trade-offs for a Robust Dynamic Hybrid Hash Join*, spill_join.cc).
///   The fragment is hash-partitioned into kSpillFanout partitions, one
///   unit charged per retained tuple; a failed charge spills the largest
///   resident partition to an unlinked temp file and the build continues,
///   so the data decides how many partitions stay resident. Probes of
///   resident partitions emit immediately; probes of spilled ones are
///   deferred to the partition's probe file. OnFinish joins each spilled
///   build/probe file pair with bounded memory: reload the build side if
///   it now fits, otherwise repartition with a level-salted hash, and at
///   kSpillMaxRecursion (or when a level fails to split) a block
///   nested-loop pass over quota-sized build batches, which terminates
///   under any skew.
///
/// Both builds emit the same rows: every probe meets its key's matches in
/// inner-fragment order.
class PipelinedJoinLogic : public OperatorLogic {
 public:
  /// Probes column `probe_column` of incoming tuples against
  /// inner.column(inner_column) on inner fragment `instance`.
  PipelinedJoinLogic(const Relation* inner, size_t inner_column,
                     size_t probe_column, JoinAlgorithm algorithm);
  ~PipelinedJoinLogic() override;

  void BindExecution(const ExecResources& resources) override;
  Status Prepare(size_t num_instances) override;
  /// Probes the activation's tuples.
  void OnDataBatch(size_t instance, std::span<Tuple> tuples,
                   Emitter* out) override;
  /// The probe body of both activation kinds: joins `tuples` against inner
  /// fragment `instance`. Resolves the inner fragment / build once per
  /// call, and for large spans hashes the whole probe-key column up front
  /// and runs the batched prefetching probe.
  void Probe(size_t instance, std::span<const Tuple> tuples, Emitter* out);
  /// Joins the instance's spilled partitions, then drops its build and
  /// returns the build's quota units.
  void OnFinish(size_t instance, Emitter* out) override;
  Status error() const override;
  std::string name() const override { return "join"; }
  NodeEstimate Estimate(const CostModel& cost_model,
                        double input_tuples) const override;

 private:
  /// One build partition of the hybrid path. `spilled` is decided during
  /// the build (inside the instance's call_once) and read-only afterwards;
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
    Mutex mu{"PipelinedJoinLogic::instance_mu"};
    std::once_flag built;
    /// Filled inside the call_once; structurally immutable after. The
    /// in-place build sets `index` (over the inner fragment itself) and
    /// `charged`; the hybrid build sets `parts` instead.
    std::unique_ptr<TempIndex> index;
    uint64_t charged = 0;  ///< Quota units held by the in-place build.
    std::vector<Partition> parts;
    Status error GUARDED_BY(mu);
  };

  /// Runs the instance's build once: in place when the fragment fits the
  /// quota, partitioned (BuildPartitions) otherwise.
  InstanceState& EnsureBuilt(size_t instance);
  /// Returns every unit the instances' builds still hold.
  void ReleaseCharges();
  void RecordError(InstanceState& state, Status status) EXCLUDES(state.mu);

  // The hybrid path (spill_join.cc).

  /// The partition of `v` at recursion `level`. Level-salted and remixed so
  /// it is independent of the upstream repartition edge's hash (which
  /// already constrained every key this instance sees).
  static size_t PartitionOf(const Value& v, size_t level);
  void BuildPartitions(size_t instance);
  /// Probes resident partitions and defers probes of spilled ones.
  void ProbePartitions(size_t instance, InstanceState& state,
                       std::span<const Tuple> tuples, Emitter* out);
  /// Joins every spilled pair of the instance and frees its partitions.
  void FinishPartitions(size_t instance, InstanceState& state, Emitter* out);
  /// Spills the largest in-memory partition with build rows; when none has
  /// any, marks `current` itself spilled. Returns non-OK on IO failure.
  Status SpillVictim(InstanceState& state, size_t current);
  Status SpillPartition(Partition& part);
  /// Joins one spilled build/probe file pair with bounded memory.
  Status ProcessSpilledPair(size_t instance, SpillFile* build_file,
                            SpillFile* probe_file, size_t level,
                            Emitter* out);
  /// Streams `probe_file` against an in-memory build fragment + index.
  Status StreamProbeFile(size_t instance, SpillFile* probe_file,
                         const Fragment& build, const TempIndex& index,
                         Emitter* out);
  /// Splits the pair into kSpillFanout sub-pairs at `level` and recurses.
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
  JoinAlgorithm algorithm_;
  ExecResources resources_;
  std::vector<std::unique_ptr<InstanceState>> instances_;
  SpillCounters counters_;
  /// spill.* counter values already published to the metrics registry.
  uint64_t published_bytes_written_ = 0;
  uint64_t published_bytes_read_ = 0;
  uint64_t published_partitions_ = 0;
  uint64_t published_recursions_ = 0;
  std::atomic<uint64_t> partitions_spilled_{0};
  std::atomic<uint64_t> recursions_{0};
};

/// Triggered join (IdealJoin node, Figure 10): both operands are
/// co-partitioned on the join attribute; the control activation for
/// instance i probes inner fragment i with the whole of outer fragment i.
/// It drives the one hash join above through its Probe body: the same
/// quota-charged build, the same spill path and the same rows as AssocJoin.
/// The build of an instance lives until its OnFinish.
class TriggeredJoinLogic : public OperatorLogic {
 public:
  /// Joins `outer` and `inner` on outer.column(outer_column) ==
  /// inner.column(inner_column).
  TriggeredJoinLogic(const Relation* outer, size_t outer_column,
                     const Relation* inner, size_t inner_column,
                     JoinAlgorithm algorithm);

  void BindExecution(const ExecResources& resources) override;
  /// Requires co-partitioned operands (equal Partitioners, each partitioned
  /// on its join column) and one instance per fragment.
  Status Prepare(size_t num_instances) override;
  void OnTrigger(size_t instance, Emitter* out) override;
  void OnFinish(size_t instance, Emitter* out) override;
  Status error() const override;
  std::string name() const override { return "join"; }
  NodeEstimate Estimate(const CostModel& cost_model,
                        double input_tuples) const override;

 private:
  const Relation* outer_;
  size_t outer_column_;
  const Relation* inner_;
  size_t inner_column_;
  JoinAlgorithm algorithm_;
  PipelinedJoinLogic join_;
};

/// Pipelined materialization: appends each incoming tuple to fragment
/// `instance` of the result relation (the `store` at the end of a pipeline
/// chain).
class StoreLogic : public OperatorLogic {
 public:
  /// `result` must have at least as many fragments as the operation has
  /// instances and must outlive the execution.
  explicit StoreLogic(Relation* result);

  Status Prepare(size_t num_instances) override;
  /// Takes the fragment lock once per activation.
  void OnDataBatch(size_t instance, std::span<Tuple> tuples,
                   Emitter* out) override;
  std::string name() const override { return "store"; }
  NodeEstimate Estimate(const CostModel& cost_model,
                        double input_tuples) const override;

 private:
  Relation* result_;
  /// One lock per result fragment. Dynamically indexed, so per-element
  /// GUARDED_BY is not expressible; AppendToFragment calls happen only
  /// under the matching fragment's lock.
  std::vector<std::unique_ptr<Mutex>> fragment_mu_;
};

/// Whether `columns` lists 0..width-1 in order: a projection that keeps a
/// `width`-column row as it is.
bool IsIdentityProjection(std::span<const size_t> columns, size_t width);

/// Pipelined projection: emits the listed columns of each incoming tuple,
/// in order. Emission goes through Emitter::EmitSelect, which writes the
/// selected columns straight into a recycled output slot — no per-row
/// output tuple is materialized.
class ProjectLogic : public OperatorLogic {
 public:
  explicit ProjectLogic(std::vector<size_t> columns);

  /// Hoists the column-list span out of the loop.
  void OnDataBatch(size_t instance, std::span<Tuple> tuples,
                   Emitter* out) override;
  std::string name() const override { return "project"; }
  NodeEstimate Estimate(const CostModel& cost_model,
                        double input_tuples) const override;

 private:
  std::vector<size_t> columns_;
};

/// Pipelined map: emits f(tuple) for each incoming tuple.
class MapLogic : public OperatorLogic {
 public:
  /// Materializing form: emits fn(tuple). Each call constructs the output
  /// row; prefer the in-place form on hot paths.
  explicit MapLogic(std::function<Tuple(Tuple)> fn);

  /// Allocation-lean form: fn overwrites a recycled per-thread scratch row
  /// (via Tuple::AssignFrom / AssignConcat) which is then EmitCopy'd into a
  /// recycled chunk slot — no per-row construction in steady state.
  explicit MapLogic(std::function<void(const Tuple&, Tuple*)> fn);

  /// Hoists the form dispatch out of the loop.
  void OnDataBatch(size_t instance, std::span<Tuple> tuples,
                   Emitter* out) override;
  std::string name() const override { return "map"; }

 private:
  std::function<Tuple(Tuple)> fn_;
  std::function<void(const Tuple&, Tuple*)> in_place_;
};

/// Pipelined aggregate sink: counts tuples and optionally sums one int
/// column. Results readable after execution completes.
class AggregateLogic : public OperatorLogic {
 public:
  /// Pass std::nullopt to only count.
  explicit AggregateLogic(std::optional<size_t> sum_column = std::nullopt);

  /// One atomic add per counter per activation instead of one per tuple.
  void OnDataBatch(size_t instance, std::span<Tuple> tuples,
                   Emitter* out) override;
  std::string name() const override { return "aggregate"; }

  uint64_t count() const { return count_.load(); }
  int64_t sum() const { return sum_.load(); }

 private:
  std::optional<size_t> sum_column_;
  std::atomic<uint64_t> count_{0};
  std::atomic<int64_t> sum_{0};
};

}  // namespace dbs3

#endif  // DBS3_ENGINE_OPERATORS_H_
