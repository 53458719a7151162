#include "engine/spill_join.h"

#include <algorithm>
#include <utility>

#include "common/hash.h"
#include "common/memory_quota.h"
#include "common/metrics.h"

namespace dbs3 {

namespace {

/// Salt mixed into every spill-partition hash so the scheme is independent
/// of the plan's repartition edges (which route by the raw Value::Hash —
/// without the remix, every key one instance sees would share hash % degree
/// and partition placement would degenerate).
constexpr uint64_t kSpillSalt = 0x5b11f11e5a17u;

}  // namespace

SpillingHashJoinLogic::SpillingHashJoinLogic(const Relation* inner,
                                             size_t inner_column,
                                             size_t probe_column,
                                             SpillJoinOptions options)
    : inner_(inner),
      inner_column_(inner_column),
      probe_column_(probe_column),
      options_(options) {
  options_.fanout = std::max<size_t>(2, options_.fanout);
  options_.max_recursion = std::max<size_t>(1, options_.max_recursion);
}

SpillingHashJoinLogic::~SpillingHashJoinLogic() {
  // A cancelled run skips OnFinish; charges held by retained build rows are
  // returned here (the bound quota outlives the plan's logics by contract).
  if (resources_.quota == nullptr) return;
  for (const auto& state : instances_) {
    for (const Partition& part : state->parts) {
      resources_.quota->Release(part.charged);
    }
  }
}

void SpillingHashJoinLogic::BindExecution(const ExecResources& resources) {
  resources_ = resources;
}

Status SpillingHashJoinLogic::Prepare(size_t num_instances) {
  if (num_instances > inner_->degree()) {
    return Status::InvalidArgument(
        "spill-join has " + std::to_string(num_instances) +
        " instances but inner relation '" + inner_->name() + "' has only " +
        std::to_string(inner_->degree()) + " fragments");
  }
  if (resources_.quota != nullptr) {
    for (const auto& state : instances_) {
      for (const Partition& part : state->parts) {
        resources_.quota->Release(part.charged);
      }
    }
  }
  instances_.clear();
  for (size_t i = 0; i < num_instances; ++i) {
    instances_.push_back(std::make_unique<InstanceState>());
  }
  return Status::OK();
}

size_t SpillingHashJoinLogic::PartitionOf(const Value& v,
                                          size_t level) const {
  const uint64_t salt =
      kSpillSalt + static_cast<uint64_t>(level) * 0x9e3779b97f4a7c15ull;
  return static_cast<size_t>(HashInt64(HashCombine(v.Hash(), salt)) %
                             options_.fanout);
}

void SpillingHashJoinLogic::RecordError(InstanceState& state, Status status) {
  if (status.ok()) return;
  MutexLock lock(&state.mu);
  if (state.error.ok()) state.error = std::move(status);
}

Status SpillingHashJoinLogic::error() const {
  for (const auto& state : instances_) {
    MutexLock lock(&state->mu);
    if (!state->error.ok()) return state->error;
  }
  return Status::OK();
}

Status SpillingHashJoinLogic::SpillPartition(Partition& part) {
  if (part.build_file == nullptr) {
    DBS3_ASSIGN_OR_RETURN(part.build_file, SpillFile::Create(&counters_));
  }
  for (const Tuple& t : part.build.tuples) {
    DBS3_RETURN_IF_ERROR(part.build_file->Append(t));
  }
  // Free the vector's capacity, not just its size — the whole point is
  // returning the memory.
  std::vector<Tuple>().swap(part.build.tuples);
  if (resources_.quota != nullptr) resources_.quota->Release(part.charged);
  part.charged = 0;
  part.spilled = true;
  partitions_spilled_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status SpillingHashJoinLogic::SpillVictim(InstanceState& state,
                                          size_t current) {
  size_t victim = state.parts.size();
  size_t victim_rows = 0;
  for (size_t p = 0; p < state.parts.size(); ++p) {
    if (state.parts[p].spilled) continue;
    const size_t rows = state.parts[p].build.tuples.size();
    if (victim == state.parts.size() || rows > victim_rows) {
      victim = p;
      victim_rows = rows;
    }
  }
  // Nothing left to evict: the current partition goes straight to disk.
  if (victim == state.parts.size() || victim_rows == 0) victim = current;
  return SpillPartition(state.parts[victim]);
}

void SpillingHashJoinLogic::BuildPartitions(size_t instance) {
  InstanceState& state = *instances_[instance];
  const Fragment& fragment = inner_->fragment(instance);
  state.parts.resize(options_.fanout);
  MemoryQuota* quota = resources_.quota;
  for (const Tuple& t : fragment.tuples) {
    const size_t p = PartitionOf(t.at(inner_column_), 0);
    Partition& part = state.parts[p];
    if (!part.spilled && quota != nullptr) {
      while (!part.spilled && !quota->TryCharge(1)) {
        const Status spilled = SpillVictim(state, p);
        if (!spilled.ok()) {
          RecordError(state, spilled);
          return;
        }
      }
    }
    if (part.spilled) {
      const Status appended = part.build_file->Append(t);
      if (!appended.ok()) {
        RecordError(state, appended);
        return;
      }
    } else {
      part.build.tuples.push_back(t);
      if (quota != nullptr) ++part.charged;
    }
  }
  // Index what stayed resident. Partitions are append-complete here, so the
  // TempIndex's reference into the fragment's tuple vector is stable.
  for (Partition& part : state.parts) {
    if (!part.spilled && !part.build.tuples.empty()) {
      part.index = std::make_unique<TempIndex>(part.build, inner_column_);
    }
  }
}

void SpillingHashJoinLogic::EnsureBuilt(size_t instance) {
  InstanceState& state = *instances_[instance];
  std::call_once(state.built, [&] { BuildPartitions(instance); });
}

void SpillingHashJoinLogic::OnDataBatch(size_t instance,
                                        std::span<Tuple> tuples,
                                        Emitter* out) {
  EnsureBuilt(instance);
  InstanceState& state = *instances_[instance];
  for (const Tuple& tuple : tuples) {
    const Value& key = tuple.at(probe_column_);
    Partition& part = state.parts[PartitionOf(key, 0)];
    if (part.spilled) {
      // Deferred probe: several worker threads may drain one instance, so
      // the append takes the instance lock.
      MutexLock lock(&state.mu);
      if (part.probe_file == nullptr) {
        Result<std::unique_ptr<SpillFile>> file =
            SpillFile::Create(&counters_);
        if (!file.ok()) {
          if (state.error.ok()) state.error = file.status();
          continue;
        }
        part.probe_file = std::move(file).value();
      }
      const Status appended = part.probe_file->Append(tuple);
      if (!appended.ok() && state.error.ok()) state.error = appended;
      continue;
    }
    if (part.index == nullptr) continue;  // Empty resident partition.
    for (uint32_t i : part.index->Probe(key)) {
      out->EmitConcat(instance, tuple, part.build.tuples[i]);
    }
  }
}

Status SpillingHashJoinLogic::StreamProbeFile(size_t instance,
                                              SpillFile* probe_file,
                                              const Fragment& build,
                                              const TempIndex& index,
                                              Emitter* out) {
  DBS3_RETURN_IF_ERROR(probe_file->Rewind());
  std::vector<Tuple> chunk;
  while (true) {
    // Per-chunk, not per-pass: a deferred probe file can hold most of the
    // relation, and cancellation latency must not scale with spill size
    // (dbs3-cancel-check-in-consume-loop).
    if (resources_.cancel.ShouldStop()) return Status::OK();
    DBS3_ASSIGN_OR_RETURN(const bool more, probe_file->ReadChunk(&chunk));
    if (!more) return Status::OK();
    for (const Tuple& probe : chunk) {
      for (uint32_t i : index.Probe(probe.at(probe_column_))) {
        out->EmitConcat(instance, probe, build.tuples[i]);
      }
    }
  }
}

Status SpillingHashJoinLogic::ProcessSpilledPair(size_t instance,
                                                 SpillFile* build_file,
                                                 SpillFile* probe_file,
                                                 size_t level, Emitter* out) {
  if (resources_.cancel.ShouldStop()) return Status::OK();
  // No deferred probes: the partition produces nothing, skip its IO.
  if (probe_file == nullptr || probe_file->tuple_count() == 0) {
    return Status::OK();
  }
  MemoryQuota* quota = resources_.quota;

  // Optimistically reload the build side — by flush time other partitions
  // have released their charges, so a partition that overflowed during the
  // build often fits now (the hybrid part).
  DBS3_RETURN_IF_ERROR(build_file->Rewind());
  Fragment build;
  // The guard owns the reload's units: the previous hand-rolled ledger
  // leaked them when a ReadChunk error returned out of the loop before the
  // manual Release (found by dbs3-quota-pairing).
  ChargeGuard reload(quota);
  bool fits = true;
  std::vector<Tuple> chunk;
  while (fits) {
    // The guard returns the partial reload's units on this early exit.
    if (resources_.cancel.ShouldStop()) return Status::OK();
    DBS3_ASSIGN_OR_RETURN(const bool more, build_file->ReadChunk(&chunk));
    if (!more) break;
    for (Tuple& t : chunk) {
      if (!reload.TryAdd(1)) {
        fits = false;
        break;
      }
      build.tuples.push_back(std::move(t));
    }
  }
  Status result = Status::OK();
  if (fits) {
    TempIndex index(build, inner_column_);
    result = StreamProbeFile(instance, probe_file, build, index, out);
  }
  // Return the budget before recursing: the repartition/nested-loop passes
  // below need the units this optimistic reload was holding.
  reload.ReleaseNow();
  if (fits || !result.ok()) return result;

  build.tuples.clear();
  if (level >= options_.max_recursion) {
    return BlockNestedLoop(instance, build_file, probe_file, out);
  }
  return Repartition(instance, build_file, probe_file, level, out);
}

Status SpillingHashJoinLogic::Repartition(size_t instance,
                                          SpillFile* build_file,
                                          SpillFile* probe_file, size_t level,
                                          Emitter* out) {
  recursions_.fetch_add(1, std::memory_order_relaxed);
  std::vector<std::unique_ptr<SpillFile>> sub_build(options_.fanout);
  std::vector<std::unique_ptr<SpillFile>> sub_probe(options_.fanout);

  auto split = [&](SpillFile* src, size_t column,
                   std::vector<std::unique_ptr<SpillFile>>& dst) -> Status {
    DBS3_RETURN_IF_ERROR(src->Rewind());
    std::vector<Tuple> chunk;
    while (true) {
      // A split pass rereads a whole overflow partition; stay cancellable
      // per chunk rather than per level.
      if (resources_.cancel.ShouldStop()) return Status::OK();
      DBS3_ASSIGN_OR_RETURN(const bool more, src->ReadChunk(&chunk));
      if (!more) return Status::OK();
      for (const Tuple& t : chunk) {
        const size_t p = PartitionOf(t.at(column), level);
        if (dst[p] == nullptr) {
          DBS3_ASSIGN_OR_RETURN(dst[p], SpillFile::Create(&counters_));
        }
        DBS3_RETURN_IF_ERROR(dst[p]->Append(t));
      }
    }
  };
  DBS3_RETURN_IF_ERROR(split(build_file, inner_column_, sub_build));
  DBS3_RETURN_IF_ERROR(split(probe_file, probe_column_, sub_probe));

  for (size_t p = 0; p < options_.fanout; ++p) {
    if (sub_build[p] == nullptr || sub_probe[p] == nullptr) continue;
    // A level that failed to split (one hot key captured everything) will
    // fail to split forever; stop rehashing and nested-loop it now.
    if (sub_build[p]->tuple_count() == build_file->tuple_count()) {
      DBS3_RETURN_IF_ERROR(BlockNestedLoop(instance, sub_build[p].get(),
                                           sub_probe[p].get(), out));
      continue;
    }
    DBS3_RETURN_IF_ERROR(ProcessSpilledPair(
        instance, sub_build[p].get(), sub_probe[p].get(), level + 1, out));
  }
  return Status::OK();
}

Status SpillingHashJoinLogic::BlockNestedLoop(size_t instance,
                                              SpillFile* build_file,
                                              SpillFile* probe_file,
                                              Emitter* out) {
  MemoryQuota* quota = resources_.quota;
  DBS3_RETURN_IF_ERROR(build_file->Rewind());
  std::vector<Tuple> pending;
  size_t pending_pos = 0;
  bool exhausted = false;
  while (!exhausted || pending_pos < pending.size()) {
    if (resources_.cancel.ShouldStop()) return Status::OK();
    // Fill one quota-sized build batch. The first tuple of a batch is
    // force-charged when even one unit is unavailable — a batch of at
    // least one row guarantees the pass terminates (bounded overshoot:
    // one unit per instance at a time).
    Fragment batch;
    // The guard owns the batch's units and releases them at the end of
    // each pass — including the ReadChunk error return inside the fill
    // loop, which the previous hand-rolled ledger leaked across
    // (found by dbs3-quota-pairing).
    ChargeGuard charge(quota);
    while (true) {
      // The outer pass loop also checks, but one batch spans many chunks
      // when the budget is generous; the guard releases the partial batch.
      if (resources_.cancel.ShouldStop()) return Status::OK();
      if (pending_pos >= pending.size()) {
        pending.clear();
        pending_pos = 0;
        DBS3_ASSIGN_OR_RETURN(const bool more,
                              build_file->ReadChunk(&pending));
        if (!more) {
          exhausted = true;
          break;
        }
      }
      if (!charge.TryAdd(1)) {
        if (batch.tuples.empty()) {
          charge.ForceAdd(1);
        } else {
          break;
        }
      }
      batch.tuples.push_back(std::move(pending[pending_pos++]));
    }
    if (batch.tuples.empty()) break;
    TempIndex index(batch, inner_column_);
    DBS3_RETURN_IF_ERROR(
        StreamProbeFile(instance, probe_file, batch, index, out));
  }
  return Status::OK();
}

void SpillingHashJoinLogic::OnFinish(size_t instance, Emitter* out) {
  InstanceState& state = *instances_[instance];
  // An instance that received no probe activations never built; its output
  // is empty either way (inner join), so skip the build entirely.
  for (Partition& part : state.parts) {
    if (!part.spilled) continue;
    const Status processed = ProcessSpilledPair(
        instance, part.build_file.get(), part.probe_file.get(), 1, out);
    RecordError(state, processed);
    part.build_file.reset();
    part.probe_file.reset();
  }
  // Drop the resident build side and return its charges: downstream of
  // OnFinish nothing probes this instance again.
  if (resources_.quota != nullptr) {
    for (Partition& part : state.parts) {
      resources_.quota->Release(part.charged);
      part.charged = 0;
    }
  }
  for (Partition& part : state.parts) {
    part.index.reset();
    std::vector<Tuple>().swap(part.build.tuples);
  }
  PublishMetrics();
}

void SpillingHashJoinLogic::PublishMetrics() {
  if (resources_.metrics == nullptr) return;
  // OnFinish runs sequentially, so delta publishing needs no lock.
  const uint64_t bw = counters_.bytes_written.load(std::memory_order_relaxed);
  const uint64_t br = counters_.bytes_read.load(std::memory_order_relaxed);
  const uint64_t parts =
      partitions_spilled_.load(std::memory_order_relaxed);
  const uint64_t recs = recursions_.load(std::memory_order_relaxed);
  resources_.metrics->counter("spill.bytes_written")
      ->Add(bw - published_bytes_written_);
  resources_.metrics->counter("spill.bytes_read")
      ->Add(br - published_bytes_read_);
  resources_.metrics->counter("spill.partitions")
      ->Add(parts - published_partitions_);
  resources_.metrics->counter("spill.recursions")
      ->Add(recs - published_recursions_);
  published_bytes_written_ = bw;
  published_bytes_read_ = br;
  published_partitions_ = parts;
  published_recursions_ = recs;
}

NodeEstimate SpillingHashJoinLogic::Estimate(const CostModel& cost_model,
                                             double input_tuples) const {
  // Mirror the in-memory pipelined join's index estimate: when everything
  // fits the paths are identical, and the scheduler has no spill statistics
  // to do better with.
  NodeEstimate e;
  const std::vector<uint64_t> inner = inner_->FragmentCardinalities();
  const size_t m = inner.size();
  const double probes_per_instance =
      m > 0 ? input_tuples / static_cast<double>(m) : 0.0;
  e.per_instance_work.reserve(m);
  for (uint64_t c : inner) {
    const double w =
        static_cast<double>(c) * cost_model.index_build_tuple +
        probes_per_instance * cost_model.index_probe;
    e.per_instance_work.push_back(w);
    e.total_work += w;
  }
  e.activations = input_tuples;
  e.output_tuples = input_tuples;
  return e;
}

}  // namespace dbs3
