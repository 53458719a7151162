#include "engine/operators.h"

#include <algorithm>
#include <cassert>

#include "common/arena.h"
#include "common/memory_quota.h"
#include "engine/vector/column_batch.h"
#include "engine/vector/kernels.h"

namespace dbs3 {

namespace {

/// Triggered operators process whole fragments; the batch path tiles them
/// so selection vectors, hash arrays, and column views stay cache-resident
/// regardless of fragment size.
constexpr size_t kFragmentTile = 1024;

/// Batched indexed join probe: hashes the probe-key column in one pass,
/// resolves every first match with the index's prefetching batch probe,
/// then walks each chain emitting probe⋈match concatenations. Probe rows
/// are processed in order and chains are ascending, so output order matches
/// the per-row loop exactly. Scratch lives in the per-thread arena.
void BatchProbeJoin(const TempIndex& index, std::span<const Tuple> probe,
                    size_t probe_column, const std::vector<Tuple>& inner,
                    size_t instance, Emitter* out) {
  Arena& arena = ThreadLocalKernelArena();
  for (size_t base = 0; base < probe.size(); base += kFragmentTile) {
    const size_t count = std::min(kFragmentTile, probe.size() - base);
    ScopedArena scope(&arena);
    ColumnBatch batch(probe.subspan(base, count), &arena);
    const TileMatches m =
        ProbeFirstMatches(index, batch, probe_column, &arena);
    if (m.ints != nullptr) {
      // Int keys both sides: every chain confirm is a flat compare against
      // the index's inline key cache.
      for (size_t i = 0; i < count; ++i) {
        for (uint32_t pos = m.first[i]; pos != TempIndex::kNone;
             pos = index.NextMatchAfter(pos, m.ints[i])) {
          out->EmitConcat(instance, probe[base + i], inner[pos]);
        }
      }
      continue;
    }
    for (size_t i = 0; i < count; ++i) {
      for (uint32_t pos = m.first[i]; pos != TempIndex::kNone;
           pos = index.NextMatchAfter(pos, m.hashes[i], *m.values[i])) {
        out->EmitConcat(instance, probe[base + i], inner[pos]);
      }
    }
  }
}

}  // namespace

Predicate::Predicate(PredExpr e)
    : row([expr = e](const Tuple& t) { return expr.EvalRow(t); }),
      expr(std::move(e)) {}

Predicate ColumnEquals(size_t column, Value value) {
  const uint32_t col = static_cast<uint32_t>(column);
  if (value.is_int()) return PredExpr::IntEquals(col, value.AsInt());
  return PredExpr::StringEquals(col, value.AsString());
}

Predicate ColumnBetween(size_t column, int64_t lo, int64_t hi) {
  return PredExpr::IntBetween(static_cast<uint32_t>(column), lo, hi);
}

Predicate MatchAll() { return PredExpr::All(); }

const char* JoinAlgorithmName(JoinAlgorithm a) {
  switch (a) {
    case JoinAlgorithm::kNestedLoop:
      return "nested-loop";
    case JoinAlgorithm::kTempIndex:
      return "temp-index";
  }
  return "unknown";
}

// ---------------------------------------------------------------- Filter

FilterLogic::FilterLogic(const Relation* input, Predicate predicate,
                         double selectivity,
                         std::optional<std::vector<size_t>> columns)
    : input_(input),
      predicate_(std::move(predicate)),
      selectivity_(selectivity),
      columns_(std::move(columns)) {
  if (columns_.has_value() &&
      IsIdentityProjection(*columns_, input_->schema().num_columns())) {
    columns_.reset();  // The whole row: keep EmitCopy.
  }
}

NodeEstimate FilterLogic::Estimate(const CostModel& cost_model,
                                   double input_tuples) const {
  (void)input_tuples;  // Triggered: no data activations.
  NodeEstimate e;
  const std::vector<uint64_t> cards = input_->FragmentCardinalities();
  e.per_instance_work.reserve(cards.size());
  for (uint64_t c : cards) {
    const double w = static_cast<double>(c) * cost_model.scan_tuple;
    e.per_instance_work.push_back(w);
    e.total_work += w;
  }
  e.activations = static_cast<double>(cards.size());
  e.output_tuples =
      static_cast<double>(input_->cardinality()) * selectivity_;
  return e;
}

Status FilterLogic::Prepare(size_t num_instances) {
  if (num_instances > input_->degree()) {
    return Status::InvalidArgument(
        "filter has " + std::to_string(num_instances) +
        " instances but input relation '" + input_->name() + "' has only " +
        std::to_string(input_->degree()) + " fragments");
  }
  return Status::OK();
}

void FilterLogic::OnTrigger(size_t instance, Emitter* out) {
  // The projection is decided once per fragment, so a whole-row scan runs
  // the plain EmitCopy loop.
  if (!columns_.has_value()) {
    ScanFragment(instance,
                 [&](const Tuple& t) { out->EmitCopy(instance, t); });
    return;
  }
  const std::span<const size_t> columns(*columns_);
  ScanFragment(instance, [&](const Tuple& t) {
    out->EmitSelect(instance, t, columns);
  });
}

template <typename EmitFn>
void FilterLogic::ScanFragment(size_t instance, EmitFn emit) const {
  const std::vector<Tuple>& rows = input_->fragment(instance).tuples;
  if (predicate_.expr.has_value() && rows.size() >= kMinBatchRows) {
    // Batch kernel, one tile at a time: build the column view, evaluate the
    // lowered predicate into a selection vector, emit the survivors. All
    // scratch lives in the per-thread arena — zero steady-state heap
    // traffic. Tiles run in fragment order and selections are ascending, so
    // emission order matches the row loop exactly.
    const PredExpr& expr = *predicate_.expr;
    Arena& arena = ThreadLocalKernelArena();
    for (size_t base = 0; base < rows.size(); base += kFragmentTile) {
      const size_t count = std::min(kFragmentTile, rows.size() - base);
      ScopedArena scope(&arena);
      ColumnBatch batch(std::span<const Tuple>(rows.data() + base, count),
                        &arena);
      uint32_t* sel = arena.AllocateArrayOf<uint32_t>(count);
      const size_t kept = EvalPredAll(expr, batch, sel);
      for (size_t i = 0; i < kept; ++i) emit(rows[base + sel[i]]);
    }
    return;
  }
  if (predicate_.expr.has_value()) {
    // Row path over a lowered predicate: switch-dispatched evaluation, no
    // std::function call per tuple.
    const PredExpr& expr = *predicate_.expr;
    for (const Tuple& t : rows) {
      if (expr.EvalRow(t)) emit(t);
    }
    return;
  }
  const TuplePredicate& keep = predicate_.row;
  for (const Tuple& t : rows) {
    if (keep(t)) emit(t);
  }
}

// -------------------------------------------------------------- Transmit

TransmitLogic::TransmitLogic(const Relation* input) : input_(input) {}

NodeEstimate TransmitLogic::Estimate(const CostModel& cost_model,
                                     double input_tuples) const {
  (void)input_tuples;  // Triggered: no data activations.
  NodeEstimate e;
  const std::vector<uint64_t> cards = input_->FragmentCardinalities();
  const double per_tuple = cost_model.scan_tuple + cost_model.transfer_tuple;
  e.per_instance_work.reserve(cards.size());
  for (uint64_t c : cards) {
    const double w = static_cast<double>(c) * per_tuple;
    e.per_instance_work.push_back(w);
    e.total_work += w;
  }
  e.activations = static_cast<double>(cards.size());
  e.output_tuples = static_cast<double>(input_->cardinality());
  return e;
}

Status TransmitLogic::Prepare(size_t num_instances) {
  if (num_instances > input_->degree()) {
    return Status::InvalidArgument(
        "transmit has " + std::to_string(num_instances) +
        " instances but input relation '" + input_->name() + "' has only " +
        std::to_string(input_->degree()) + " fragments");
  }
  return Status::OK();
}

void TransmitLogic::OnTrigger(size_t instance, Emitter* out) {
  const Fragment& frag = input_->fragment(instance);
  for (const Tuple& t : frag.tuples) out->EmitCopy(instance, t);
}

// -------------------------------------------------------- TriggeredJoin

TriggeredJoinLogic::TriggeredJoinLogic(const Relation* outer,
                                       size_t outer_column,
                                       const Relation* inner,
                                       size_t inner_column,
                                       JoinAlgorithm algorithm)
    : outer_(outer),
      outer_column_(outer_column),
      inner_(inner),
      inner_column_(inner_column),
      algorithm_(algorithm),
      join_(inner, inner_column, outer_column, algorithm) {}

void TriggeredJoinLogic::BindExecution(const ExecResources& resources) {
  join_.BindExecution(resources);
}

NodeEstimate TriggeredJoinLogic::Estimate(const CostModel& cost_model,
                                          double input_tuples) const {
  (void)input_tuples;  // Triggered: no data activations.
  NodeEstimate e;
  const std::vector<uint64_t> outer = outer_->FragmentCardinalities();
  const std::vector<uint64_t> inner = inner_->FragmentCardinalities();
  const size_t m = std::min(outer.size(), inner.size());
  e.per_instance_work.reserve(m);
  for (size_t i = 0; i < m; ++i) {
    double w = 0.0;
    if (algorithm_ == JoinAlgorithm::kNestedLoop) {
      w = static_cast<double>(outer[i]) * static_cast<double>(inner[i]) *
          cost_model.nl_pair;
    } else {
      w = static_cast<double>(inner[i]) * cost_model.index_build_tuple +
          static_cast<double>(outer[i]) * cost_model.index_probe;
    }
    e.per_instance_work.push_back(w);
    e.total_work += w;
  }
  e.activations = static_cast<double>(m);
  // Join-cardinality estimate: one match per outer tuple (the foreign-key
  // shape of the experiment databases).
  e.output_tuples = static_cast<double>(outer_->cardinality());
  return e;
}

Status TriggeredJoinLogic::Prepare(size_t num_instances) {
  if (outer_->partitioner() != inner_->partitioner() ||
      outer_->partition_column() != outer_column_ ||
      inner_->partition_column() != inner_column_) {
    return Status::FailedPrecondition(
        "IdealJoin requires operands co-partitioned on the join columns: '" +
        outer_->name() + "' is " + outer_->partitioner().ToString() +
        " on column " + std::to_string(outer_->partition_column()) +
        " (joins on " + std::to_string(outer_column_) + "), '" +
        inner_->name() + "' is " + inner_->partitioner().ToString() +
        " on column " + std::to_string(inner_->partition_column()) +
        " (joins on " + std::to_string(inner_column_) + ")");
  }
  if (num_instances != outer_->degree()) {
    return Status::InvalidArgument(
        "triggered join must have one instance per fragment (" +
        std::to_string(outer_->degree()) + "), got " +
        std::to_string(num_instances));
  }
  return join_.Prepare(num_instances);
}

void TriggeredJoinLogic::OnTrigger(size_t instance, Emitter* out) {
  join_.Probe(instance, outer_->fragment(instance).tuples, out);
}

void TriggeredJoinLogic::OnFinish(size_t instance, Emitter* out) {
  join_.OnFinish(instance, out);
}

Status TriggeredJoinLogic::error() const { return join_.error(); }

// -------------------------------------------------------- PipelinedJoin

PipelinedJoinLogic::PipelinedJoinLogic(const Relation* inner,
                                       size_t inner_column,
                                       size_t probe_column,
                                       JoinAlgorithm algorithm)
    : inner_(inner),
      inner_column_(inner_column),
      probe_column_(probe_column),
      algorithm_(algorithm) {}

PipelinedJoinLogic::~PipelinedJoinLogic() {
  // A cancelled run skips OnFinish; charges held by retained build rows are
  // returned here (the bound quota outlives the plan's logics by contract).
  ReleaseCharges();
}

void PipelinedJoinLogic::BindExecution(const ExecResources& resources) {
  resources_ = resources;
}

NodeEstimate PipelinedJoinLogic::Estimate(const CostModel& cost_model,
                                          double input_tuples) const {
  NodeEstimate e;
  const std::vector<uint64_t> inner = inner_->FragmentCardinalities();
  const size_t m = inner.size();
  const double probes_per_instance =
      m > 0 ? input_tuples / static_cast<double>(m) : 0.0;
  e.per_instance_work.reserve(m);
  for (uint64_t c : inner) {
    double w = 0.0;
    if (algorithm_ == JoinAlgorithm::kNestedLoop) {
      // Each probe scans the whole inner fragment.
      w = probes_per_instance * static_cast<double>(c) * cost_model.nl_pair;
    } else {
      // One-time build amortized into the instance, constant-ish probes.
      // The scheduler has no spill statistics, so a spilling build is
      // estimated as the in-memory one.
      w = static_cast<double>(c) * cost_model.index_build_tuple +
          probes_per_instance * cost_model.index_probe;
    }
    e.per_instance_work.push_back(w);
    e.total_work += w;
  }
  e.activations = input_tuples;
  e.output_tuples = input_tuples;  // One match per probe (foreign-key shape).
  return e;
}

Status PipelinedJoinLogic::Prepare(size_t num_instances) {
  if (num_instances > inner_->degree()) {
    return Status::InvalidArgument(
        "pipelined join has " + std::to_string(num_instances) +
        " instances but inner relation '" + inner_->name() + "' has only " +
        std::to_string(inner_->degree()) + " fragments");
  }
  ReleaseCharges();
  instances_.clear();
  for (size_t i = 0; i < num_instances; ++i) {
    instances_.push_back(std::make_unique<InstanceState>());
  }
  return Status::OK();
}

void PipelinedJoinLogic::ReleaseCharges() {
  MemoryQuota* quota = resources_.quota;
  if (quota == nullptr) return;
  // Only non-zero ledgers touch the quota: after a clean OnFinish every
  // ledger is zero, and the quota may already be gone.
  for (const auto& state : instances_) {
    if (state->charged != 0) quota->Release(state->charged);
    for (const Partition& part : state->parts) {
      if (part.charged != 0) quota->Release(part.charged);
    }
  }
}

void PipelinedJoinLogic::RecordError(InstanceState& state, Status status) {
  if (status.ok()) return;
  MutexLock lock(&state.mu);
  if (state.error.ok()) state.error = std::move(status);
}

Status PipelinedJoinLogic::error() const {
  for (const auto& state : instances_) {
    MutexLock lock(&state->mu);
    if (!state->error.ok()) return state->error;
  }
  return Status::OK();
}

PipelinedJoinLogic::InstanceState& PipelinedJoinLogic::EnsureBuilt(
    size_t instance) {
  InstanceState& state = *instances_[instance];
  std::call_once(state.built, [&] {
    const Fragment& fragment = inner_->fragment(instance);
    const uint64_t units = fragment.cardinality();
    MemoryQuota* quota = resources_.quota;
    if (quota != nullptr && !quota->TryCharge(units)) {
      BuildPartitions(instance);
      return;
    }
    // It fits: index the fragment in place and hold its units.
    if (quota != nullptr) state.charged = units;
    state.index = std::make_unique<TempIndex>(fragment, inner_column_);
  });
  return state;
}

void PipelinedJoinLogic::OnDataBatch(size_t instance,
                                     std::span<Tuple> tuples, Emitter* out) {
  Probe(instance, tuples, out);
}

void PipelinedJoinLogic::Probe(size_t instance,
                               std::span<const Tuple> tuples, Emitter* out) {
  // Per-call setup hoisted out of the probe loop: the fragment reference,
  // the algorithm dispatch, and (for indexed joins) the
  // once-flag-guarded build resolution happen once per span.
  const Fragment& inner = inner_->fragment(instance);
  switch (algorithm_) {
    case JoinAlgorithm::kNestedLoop:
      for (const Tuple& probe : tuples) {
        const Value& key = probe.at(probe_column_);
        for (const Tuple& s : inner.tuples) {
          if (s.at(inner_column_) == key) out->EmitConcat(instance, probe, s);
        }
      }
      break;
    case JoinAlgorithm::kTempIndex: {
      InstanceState& state = EnsureBuilt(instance);
      if (state.index == nullptr) {
        ProbePartitions(instance, state, tuples, out);
        break;
      }
      const TempIndex& index = *state.index;
      if (tuples.size() >= kMinBatchRows) {
        BatchProbeJoin(index, tuples, probe_column_, inner.tuples, instance,
                       out);
        break;
      }
      for (const Tuple& probe : tuples) {
        for (uint32_t i : index.Probe(probe.at(probe_column_))) {
          out->EmitConcat(instance, probe, inner.tuples[i]);
        }
      }
      break;
    }
  }
}

void PipelinedJoinLogic::OnFinish(size_t instance, Emitter* out) {
  InstanceState& state = *instances_[instance];
  if (!state.parts.empty()) FinishPartitions(instance, state, out);
  // Drop the in-place build and return its charge: downstream of OnFinish
  // nothing probes this instance again.
  if (state.charged != 0) resources_.quota->Release(state.charged);
  state.charged = 0;
  state.index.reset();
}

// ------------------------------------------------------------------ Store

StoreLogic::StoreLogic(Relation* result) : result_(result) {}

NodeEstimate StoreLogic::Estimate(const CostModel& cost_model,
                                  double input_tuples) const {
  NodeEstimate e;
  e.total_work = input_tuples * cost_model.store_tuple;
  e.activations = input_tuples;
  e.output_tuples = 0.0;
  return e;
}

Status StoreLogic::Prepare(size_t num_instances) {
  if (num_instances > result_->degree()) {
    return Status::InvalidArgument(
        "store has " + std::to_string(num_instances) +
        " instances but result relation '" + result_->name() + "' has only " +
        std::to_string(result_->degree()) + " fragments");
  }
  fragment_mu_.clear();
  for (size_t i = 0; i < num_instances; ++i) {
    fragment_mu_.push_back(std::make_unique<Mutex>("StoreLogic::fragment_mu"));
  }
  return Status::OK();
}

void StoreLogic::OnDataBatch(size_t instance, std::span<Tuple> tuples,
                             Emitter* out) {
  (void)out;
  MutexLock lock(fragment_mu_[instance].get());
  for (Tuple& t : tuples) {
    result_->AppendToFragment(instance, std::move(t));
  }
}

// ---------------------------------------------------------------- Project

bool IsIdentityProjection(std::span<const size_t> columns, size_t width) {
  if (columns.size() != width) return false;
  for (size_t i = 0; i < width; ++i) {
    if (columns[i] != i) return false;
  }
  return true;
}

ProjectLogic::ProjectLogic(std::vector<size_t> columns)
    : columns_(std::move(columns)) {}

void ProjectLogic::OnDataBatch(size_t instance, std::span<Tuple> tuples,
                               Emitter* out) {
  // EmitSelect writes the selected columns straight into a recycled output
  // slot; no output tuple is materialized here.
  const std::span<const size_t> columns(columns_);
  for (const Tuple& t : tuples) out->EmitSelect(instance, t, columns);
}

NodeEstimate ProjectLogic::Estimate(const CostModel& cost_model,
                                    double input_tuples) const {
  NodeEstimate e;
  e.total_work = input_tuples * cost_model.scan_tuple;
  e.activations = input_tuples;
  e.output_tuples = input_tuples;
  return e;
}

// -------------------------------------------------------------------- Map

MapLogic::MapLogic(std::function<Tuple(Tuple)> fn) : fn_(std::move(fn)) {}

MapLogic::MapLogic(std::function<void(const Tuple&, Tuple*)> fn)
    : in_place_(std::move(fn)) {}

void MapLogic::OnDataBatch(size_t instance, std::span<Tuple> tuples,
                           Emitter* out) {
  if (in_place_) {
    // The scratch row keeps its value storage across calls (AssignFrom /
    // AssignConcat overwrite live slots), and EmitCopy assigns it into a
    // recycled chunk slot — steady state constructs no tuples.
    thread_local Tuple scratch;
    for (const Tuple& t : tuples) {
      in_place_(t, &scratch);
      out->EmitCopy(instance, scratch);
    }
    return;
  }
  for (Tuple& t : tuples) out->Emit(instance, fn_(std::move(t)));
}

// -------------------------------------------------------------- Aggregate

AggregateLogic::AggregateLogic(std::optional<size_t> sum_column)
    : sum_column_(sum_column) {}

void AggregateLogic::OnDataBatch(size_t instance, std::span<Tuple> tuples,
                                 Emitter* out) {
  (void)instance;
  (void)out;
  count_.fetch_add(tuples.size(), std::memory_order_relaxed);
  if (!sum_column_.has_value()) return;
  int64_t local = 0;
  for (const Tuple& t : tuples) {
    const Value& v = t.at(*sum_column_);
    if (v.is_int()) local += v.AsInt();
  }
  sum_.fetch_add(local, std::memory_order_relaxed);
}

}  // namespace dbs3
