#include "server/shared/shared_batch.h"

#include <utility>

namespace dbs3 {

Result<SharedBatchPlan> BuildSharedBatchPlan(
    const std::vector<const SharedScanSpec*>& specs,
    const std::vector<CancelToken>& cancels) {
  if (specs.empty() || specs.size() != cancels.size()) {
    return Status::InvalidArgument("shared batch needs specs + cancels");
  }
  const SharedScanSpec* lead = specs[0];
  const Relation* rel = lead->relation;
  if (rel == nullptr) {
    return Status::InvalidArgument("shared batch lead has no relation");
  }
  const size_t degree = rel->degree();
  const size_t base_columns = rel->schema().num_columns();

  SharedBatchPlan out;
  out.ledger = std::make_unique<SharedBatchLedger>(specs.size());
  std::vector<SharedScanMember> members;
  std::vector<SharedRouterSink> router_sinks;
  members.reserve(specs.size());
  router_sinks.reserve(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    const SharedScanSpec* spec = specs[i];
    if (spec->relation != rel || spec->share_class != lead->share_class) {
      // The admission controller groups by share_class alone; this is the
      // defense-in-depth check that the classes really describe one scan.
      return Status::InvalidArgument(
          "incompatible member folded into a shared batch");
    }
    SharedScanMember member;
    member.predicate = spec->predicate;
    member.selectivity = spec->selectivity;
    member.cancel = cancels[i];
    members.push_back(std::move(member));

    auto result = std::make_unique<Relation>(
        spec->result_name, spec->result_schema, /*partition_column=*/0,
        Partitioner(PartitionKind::kHash, degree));
    SharedRouterSink sink;
    sink.result = result.get();
    sink.cancel = cancels[i];
    // Tagged tuples are [member_id, base row...]: base column c sits at
    // tagged position c + 1.
    if (spec->projection.empty()) {
      for (size_t c = 0; c < base_columns; ++c) sink.columns.push_back(c + 1);
    } else {
      for (size_t c : spec->projection) {
        if (c >= base_columns) {
          return Status::InvalidArgument("shared member projection out of "
                                         "range");
        }
        sink.columns.push_back(c + 1);
      }
    }
    router_sinks.push_back(std::move(sink));
    out.sinks.push_back(std::move(result));
  }

  const size_t scan = out.plan.AddNode(
      "shared-scan(" + rel->name() + ")", ActivationMode::kTriggered, degree,
      std::make_unique<SharedScanLogic>(rel, std::move(members),
                                        out.ledger.get()));
  const size_t route = out.plan.AddNode(
      "shared-router", ActivationMode::kPipelined, degree,
      std::make_unique<SharedResultRouterLogic>(std::move(router_sinks),
                                                out.ledger.get()));
  DBS3_RETURN_IF_ERROR(out.plan.ConnectSameInstance(scan, route));
  out.detail = "shared-scan(" + rel->name() + ")[" +
               std::to_string(specs.size()) + " queries] ; route";
  return out;
}

}  // namespace dbs3
