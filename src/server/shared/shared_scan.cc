#include "server/shared/shared_scan.h"

#include <algorithm>
#include <utility>

#include "engine/vector/column_batch.h"
#include "engine/vector/kernels.h"
#include "engine/vector/pred.h"

namespace dbs3 {

namespace {

/// Tile size of the shared pass, matching the single-query filter kernels:
/// one ColumnBatch is built per tile and reused for every member's
/// predicate — the shared-work win over N independent scans.
constexpr size_t kSharedScanTile = 1024;

}  // namespace

Status SharedBatchLedger::Audit() const {
  for (size_t m = 0; m < size_; ++m) {
    const uint64_t e = emitted(m);
    const uint64_t r = routed(m);
    const uint64_t d = dropped_cancelled(m);
    if (e != r + d) {
      return Status::Internal(
          "shared-batch ledger unbalanced for member " + std::to_string(m) +
          ": emitted " + std::to_string(e) + " != routed " +
          std::to_string(r) + " + dropped " + std::to_string(d));
    }
  }
  return Status::OK();
}

// ------------------------------------------------------------- SharedScan

SharedScanLogic::SharedScanLogic(const Relation* input,
                                 std::vector<SharedScanMember> members,
                                 SharedBatchLedger* ledger)
    : input_(input), members_(std::move(members)), ledger_(ledger) {}

Status SharedScanLogic::Prepare(size_t num_instances) {
  if (num_instances > input_->degree()) {
    return Status::InvalidArgument(
        "shared scan has " + std::to_string(num_instances) +
        " instances but relation '" + input_->name() + "' has only " +
        std::to_string(input_->degree()) + " fragments");
  }
  if (members_.size() != ledger_->size()) {
    return Status::InvalidArgument("shared scan member/ledger size mismatch");
  }
  tags_.clear();
  tags_.reserve(members_.size());
  for (size_t m = 0; m < members_.size(); ++m) {
    tags_.emplace_back(
        std::vector<Value>{Value(static_cast<int64_t>(m))});
  }
  return Status::OK();
}

void SharedScanLogic::EmitTagged(size_t instance, std::span<const Tuple> rows,
                                 size_t base, size_t member,
                                 const uint32_t* sel, size_t kept,
                                 Emitter* out) {
  const Tuple& tag = tags_[member];
  for (size_t i = 0; i < kept; ++i) {
    // [member_id, row...] into a recycled chunk slot; the router strips the
    // tag again. Zero allocations in steady state.
    out->EmitConcat(instance, tag, rows[base + sel[i]]);
  }
  ledger_->CountEmitted(member, kept);
}

void SharedScanLogic::OnTrigger(size_t instance, Emitter* out) {
  const std::vector<Tuple>& rows = input_->fragment(instance).tuples;
  const size_t num_members = members_.size();
  Arena& arena = ThreadLocalKernelArena();
  for (size_t tile = 0; tile < rows.size(); tile += kSharedScanTile) {
    const size_t count = std::min(kSharedScanTile, rows.size() - tile);
    ScopedArena scope(&arena);
    // One column view shared by every member's predicate — the pass over
    // the fragment's memory happens once regardless of the batch size.
    ColumnBatch batch(std::span<const Tuple>(rows.data() + tile, count),
                      &arena);
    uint32_t* sel = arena.AllocateArrayOf<uint32_t>(count);
    bool any_live = false;
    for (size_t m = 0; m < num_members; ++m) {
      const SharedScanMember& member = members_[m];
      // Per-tile member cancel check: a fired token stops this member's
      // share of the pass; the other members keep scanning.
      if (member.cancel.ShouldStop()) continue;
      any_live = true;
      size_t kept = 0;
      if (member.predicate.expr.has_value()) {
        const PredExpr& expr = *member.predicate.expr;
        if (count >= kMinBatchRows) {
          kept = EvalPredAll(expr, batch, sel);
        } else {
          for (size_t i = 0; i < count; ++i) {
            if (expr.EvalRow(rows[tile + i])) {
              sel[kept++] = static_cast<uint32_t>(i);
            }
          }
        }
      } else {
        const TuplePredicate& keep = member.predicate.row;
        for (size_t i = 0; i < count; ++i) {
          if (keep(rows[tile + i])) sel[kept++] = static_cast<uint32_t>(i);
        }
      }
      EmitTagged(instance, rows, tile, m, sel, kept, out);
    }
    if (!any_live) return;  // Every member cancelled: the pass is moot.
  }
}

NodeEstimate SharedScanLogic::Estimate(const CostModel& cost_model,
                                       double input_tuples) const {
  (void)input_tuples;  // Triggered: work comes from the fragments.
  NodeEstimate e;
  const double members = static_cast<double>(members_.size());
  double output = 0.0;
  for (const SharedScanMember& m : members_) {
    output += m.selectivity * static_cast<double>(input_->cardinality());
  }
  // The pass reads each tuple once but evaluates N predicates on it; the
  // scheduler sees roughly the per-member filter work without the N
  // repeated fragment reads.
  e.total_work =
      static_cast<double>(input_->cardinality()) * cost_model.scan_tuple *
      std::max(1.0, members * 0.5);
  e.activations = 0.0;
  e.output_tuples = output;
  for (uint64_t c : input_->FragmentCardinalities()) {
    e.per_instance_work.push_back(static_cast<double>(c) *
                                  cost_model.scan_tuple *
                                  std::max(1.0, members * 0.5));
  }
  return e;
}

// ----------------------------------------------------------- ResultRouter

SharedResultRouterLogic::SharedResultRouterLogic(
    std::vector<SharedRouterSink> sinks, SharedBatchLedger* ledger)
    : sinks_(std::move(sinks)), ledger_(ledger) {}

Status SharedResultRouterLogic::Prepare(size_t num_instances) {
  if (sinks_.size() != ledger_->size()) {
    return Status::InvalidArgument("shared router sink/ledger size mismatch");
  }
  for (const SharedRouterSink& sink : sinks_) {
    if (sink.result == nullptr) {
      return Status::InvalidArgument("shared router sink has no result");
    }
    if (num_instances > sink.result->degree()) {
      return Status::InvalidArgument(
          "shared router has " + std::to_string(num_instances) +
          " instances but sink '" + sink.result->name() + "' has only " +
          std::to_string(sink.result->degree()) + " fragments");
    }
  }
  fragment_mu_.clear();
  for (size_t i = 0; i < num_instances; ++i) {
    fragment_mu_.push_back(
        std::make_unique<Mutex>("SharedResultRouterLogic::fragment_mu"));
  }
  return Status::OK();
}

void SharedResultRouterLogic::RouteOne(size_t instance, const Tuple& tuple) {
  const size_t member = static_cast<size_t>(tuple.at(0).AsInt());
  SharedRouterSink& sink = sinks_[member];
  if (sink.cancel.ShouldStop()) {
    // Cancelled member: its tagged tuples drain here instead of its sink —
    // the per-query cancelled bucket of the conservation ledger.
    ledger_->CountDroppedCancelled(member, 1);
    return;
  }
  Tuple stored;
  stored.AssignSelect(tuple, sink.columns);
  sink.result->AppendToFragment(instance, std::move(stored));
  ledger_->CountRouted(member, 1);
}

void SharedResultRouterLogic::OnDataBatch(size_t instance,
                                          std::span<Tuple> tuples,
                                          Emitter* out) {
  (void)out;
  MutexLock lock(fragment_mu_[instance].get());
  for (const Tuple& t : tuples) RouteOne(instance, t);
}

}  // namespace dbs3
