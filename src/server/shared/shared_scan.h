#ifndef DBS3_SERVER_SHARED_SHARED_SCAN_H_
#define DBS3_SERVER_SHARED_SHARED_SCAN_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "engine/cancel.h"
#include "engine/operators.h"
#include "storage/relation.h"

namespace dbs3 {

/// Per-query view of the tuple-conservation ledger for one shared batch:
/// every tuple the SharedScan emits for member m must end up either
/// appended to m's result sink or dropped because m's token fired. The
/// engine's own DBS3_VERIFY ledger balances the batch as a whole; this one
/// balances each member, which is what makes "cancelling one member drops
/// only its tagged tuples" auditable.
class SharedBatchLedger {
 public:
  explicit SharedBatchLedger(size_t members)
      : size_(members), entries_(new Entry[members]) {}

  SharedBatchLedger(const SharedBatchLedger&) = delete;
  SharedBatchLedger& operator=(const SharedBatchLedger&) = delete;

  void CountEmitted(size_t member, uint64_t n) {
    entries_[member].emitted.fetch_add(n, std::memory_order_relaxed);
  }
  void CountRouted(size_t member, uint64_t n) {
    entries_[member].routed.fetch_add(n, std::memory_order_relaxed);
  }
  void CountDroppedCancelled(size_t member, uint64_t n) {
    entries_[member].dropped_cancelled.fetch_add(n, std::memory_order_relaxed);
  }

  uint64_t emitted(size_t member) const {
    return entries_[member].emitted.load(std::memory_order_relaxed);
  }
  uint64_t routed(size_t member) const {
    return entries_[member].routed.load(std::memory_order_relaxed);
  }
  uint64_t dropped_cancelled(size_t member) const {
    return entries_[member].dropped_cancelled.load(std::memory_order_relaxed);
  }

  size_t size() const { return size_; }

  /// Per-member conservation audit: emitted == routed + dropped for every
  /// member. Internal error naming the first unbalanced member otherwise.
  /// Only meaningful after the execution drained cleanly (an engine-level
  /// abort legitimately strands in-flight chunks between scan and router).
  Status Audit() const;

 private:
  struct Entry {
    std::atomic<uint64_t> emitted{0};
    std::atomic<uint64_t> routed{0};
    std::atomic<uint64_t> dropped_cancelled{0};
  };

  size_t size_;
  std::unique_ptr<Entry[]> entries_;
};

/// One query riding a shared scan.
struct SharedScanMember {
  /// The member's WHERE conjunction (evaluated against every tile).
  Predicate predicate;
  /// Scheduling estimate of the member's kept fraction.
  double selectivity = 1.0;
  /// The member's cancel token: once fired, the scan stops emitting this
  /// member's tuples (per-tile check) and the router drops the ones
  /// already in flight.
  CancelToken cancel;
};

/// Triggered multi-query scan (the SharedDB "one pass, N queries" node):
/// the control activation for instance i walks fragment i of the input
/// once, tile by tile, building each ColumnBatch a single time and
/// evaluating every live member's predicate against it. Survivors are
/// emitted tagged — output tuples are [member_id, row...] — so the
/// downstream SharedResultRouterLogic can demultiplex them into per-query
/// sinks. Members whose predicate lowered to the vector IR run through
/// EvalPredAll selection vectors; row-form predicates share the same tile
/// loop on the per-row path.
class SharedScanLogic : public OperatorLogic {
 public:
  /// `input` and `ledger` must outlive the execution.
  SharedScanLogic(const Relation* input, std::vector<SharedScanMember> members,
                  SharedBatchLedger* ledger);

  Status Prepare(size_t num_instances) override;
  void OnTrigger(size_t instance, Emitter* out) override;
  std::string name() const override { return "shared-scan"; }
  NodeEstimate Estimate(const CostModel& cost_model,
                        double input_tuples) const override;

 private:
  /// Hot emit loop (dbs3-tidy allocation-free surface): emits the selected
  /// rows of one tile tagged with `member`'s id and credits the ledger.
  void EmitTagged(size_t instance, std::span<const Tuple> rows, size_t base,
                  size_t member, const uint32_t* sel, size_t kept,
                  Emitter* out);

  const Relation* input_;
  std::vector<SharedScanMember> members_;
  SharedBatchLedger* ledger_;
  /// Prebuilt one-column [member_id] tag rows, so tagging is an EmitConcat
  /// into a recycled chunk slot — no per-tuple tag construction.
  std::vector<Tuple> tags_;
};

/// One member's result sink for the router.
struct SharedRouterSink {
  /// The member's result relation; fragment i receives instance i's rows.
  Relation* result = nullptr;
  /// Columns of the *tagged* tuple to store, in output order (base column
  /// c appears as tagged column c + 1). Precomputed by the batch builder
  /// from the member's projection.
  std::vector<size_t> columns;
  /// Tuples of a cancelled member are dropped (and counted) here rather
  /// than appended — the per-query half of drain-style cancellation.
  CancelToken cancel;
};

/// Pipelined demultiplexer closing a shared-scan plan: reads the member id
/// off each tagged tuple and appends the projected row to that member's
/// result sink (same-instance routing, so fragment order matches a solo
/// scan→store plan). Per-fragment locking mirrors StoreLogic; the ledger
/// gets one routed/dropped credit per tuple, keeping the per-query
/// conservation view balanced.
class SharedResultRouterLogic : public OperatorLogic {
 public:
  /// Sink results and `ledger` must outlive the execution.
  SharedResultRouterLogic(std::vector<SharedRouterSink> sinks,
                          SharedBatchLedger* ledger);

  Status Prepare(size_t num_instances) override;
  /// Takes the fragment lock once per activation.
  void OnDataBatch(size_t instance, std::span<Tuple> tuples,
                   Emitter* out) override;
  std::string name() const override { return "shared-router"; }

 private:
  /// Routes one tagged tuple; caller holds fragment_mu_[instance] (the
  /// dynamic index is inexpressible as a REQUIRES annotation, like
  /// StoreLogic's per-fragment locks).
  void RouteOne(size_t instance, const Tuple& tuple);

  std::vector<SharedRouterSink> sinks_;
  SharedBatchLedger* ledger_;
  /// One lock per routed fragment (dynamically indexed like StoreLogic's;
  /// appends happen only under the matching fragment's lock).
  std::vector<std::unique_ptr<Mutex>> fragment_mu_;
};

}  // namespace dbs3

#endif  // DBS3_SERVER_SHARED_SHARED_SCAN_H_
