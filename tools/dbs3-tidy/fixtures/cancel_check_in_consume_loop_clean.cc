// Fixture: the conforming twin of cancel_check_in_consume_loop_violation.cc
// — every consuming loop consults the CancelToken each iteration. Zero
// findings expected.

#include "dbs3_stubs.h"

namespace dbs3 {

// The canonical shape: cancellation is part of the loop condition.
void DrainUntilStopped(ActivationQueue* queue, CancelToken* cancel) {
  std::vector<Activation> batch;
  while (!cancel->ShouldStop()) {
    if (queue->PopBatch(64, &batch) == 0) break;
  }
}

// Equivalent: an early-exit check at the top of the body.
Status StreamWithPerChunkCheck(SpillFile* file, const CancelToken& cancel) {
  std::vector<Tuple> chunk;
  while (file->ReadChunk(&chunk)) {
    if (cancel.ShouldStop()) return Status::OK();
    chunk.clear();
  }
  return Status::OK();
}

// The `cancelled()` spelling counts too.
void DrainPolling(ActivationQueue* queue, CancelToken* cancel) {
  std::vector<Activation> batch;
  for (int pass = 0; pass < 1000 && !cancel->cancelled(); ++pass) {
    queue->PopBatch(64, &batch);
  }
}

// A loop that never consumes needs no check: the invariant binds consuming
// loops only, so spinning on arithmetic stays out of scope.
size_t NonConsumingLoop(size_t n) {
  size_t sum = 0;
  for (size_t i = 0; i < n; ++i) sum += i;
  return sum;
}

// The shared result router's drain shape done right: the batch-level token
// is consulted every chunk, so a batch cancel stops routing promptly even
// with tagged tuples still queued.
void RouteTaggedChunksUntilStopped(ActivationQueue* queue, Operation* sinks,
                                   const CancelToken& batch_cancel) {
  std::vector<Activation> chunk;
  while (!batch_cancel.ShouldStop()) {
    if (queue->PopBatch(128, &chunk) == 0) break;
    for (const Activation& a : chunk) {
      (void)a;
      sinks->PushTrigger(0);
    }
  }
}

// The park-wait worker loop done right: the token is consulted at every
// activation boundary, the same grain park requests are claimed at, so
// both cancellation and mid-query worker release stay bounded.
void WorkerLoopWithToken(Operation* op, const CancelToken& cancel) {
  std::vector<Activation> batch;
  while (!cancel.ShouldStop()) {
    if (op->AcquireBatch(0, &batch) == 0) break;
    batch.clear();
  }
}

// Spilled-batch replay with a per-chunk check: a cancelled member stops
// paying for the replay after at most one chunk.
Status ReplaySpilledBatchChecked(SpillFile* file, Operation* sinks,
                                 const CancelToken& cancel) {
  std::vector<Tuple> chunk;
  while (file->ReadChunk(&chunk)) {
    if (cancel.cancelled()) return Status::OK();
    sinks->PushDataChunk(0, chunk);
    chunk.clear();
  }
  return Status::OK();
}

}  // namespace dbs3
