// Fixture: dbs3-cancel-check-in-consume-loop must fire on every seeded
// line. The diagnostic anchors to the loop keyword, not the popping call.

#include "dbs3_stubs.h"

namespace dbs3 {

// Unbounded drain with no way out: cancellation waits for the queue to
// empty on its own.
void DrainForever(ActivationQueue* queue) {
  std::vector<Activation> batch;
  while (true) {  // DBS3-TIDY: dbs3-cancel-check-in-consume-loop
    if (queue->PopBatch(64, &batch) == 0) break;
  }
}

// Spill streaming without a cancel check: latency scales with file size.
Status StreamWholeFile(SpillFile* file) {
  std::vector<Tuple> chunk;
  while (file->ReadChunk(&chunk)) {  // DBS3-TIDY: dbs3-cancel-check-in-consume-loop
    chunk.clear();
  }
  return Status::OK();
}

// The cancel check outside the loop does not help the iterations inside.
void CheckedOnlyBeforeTheLoop(ActivationQueue* queue, CancelToken* cancel) {
  if (cancel->ShouldStop()) return;
  std::vector<Activation> batch;
  for (int pass = 0; pass < 1000; ++pass) {  // DBS3-TIDY: dbs3-cancel-check-in-consume-loop
    queue->PopBatch(64, &batch);
  }
}

// The shared result router's drain shape: demultiplexing tagged chunks to
// per-member sinks. Without a per-iteration check a cancelled member's
// tuples keep flowing until the whole batch finishes.
void RouteTaggedChunks(ActivationQueue* queue, Operation* sinks) {
  std::vector<Activation> chunk;
  while (true) {  // DBS3-TIDY: dbs3-cancel-check-in-consume-loop
    if (queue->PopBatch(128, &chunk) == 0) break;
    for (const Activation& a : chunk) {
      (void)a;
      sinks->PushTrigger(0);
    }
  }
}

// The park-wait worker-loop shape without a token: a worker acquiring
// activation batches must consult the token each boundary, or a park /
// cancel request waits for the whole drain.
void WorkerLoopWithoutToken(Operation* op) {
  std::vector<Activation> batch;
  while (true) {  // DBS3-TIDY: dbs3-cancel-check-in-consume-loop
    if (op->AcquireBatch(0, &batch) == 0) break;
    batch.clear();
  }
}

// Replaying a spilled shared batch to late members: the file drives the
// loop, so a cancel can only land between files, not between chunks.
Status ReplaySpilledBatch(SpillFile* file, Operation* sinks) {
  std::vector<Tuple> chunk;
  while (file->ReadChunk(&chunk)) {  // DBS3-TIDY: dbs3-cancel-check-in-consume-loop
    sinks->PushDataChunk(0, chunk);
    chunk.clear();
  }
  return Status::OK();
}

}  // namespace dbs3
