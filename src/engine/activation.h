#ifndef DBS3_ENGINE_ACTIVATION_H_
#define DBS3_ENGINE_ACTIVATION_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "storage/tuple.h"

namespace dbs3 {

/// A batch of tuples carried by one data activation. Chunking amortizes the
/// queue-mutex acquisition, the condition-variable notify, and the activation
/// move over `chunk_size` tuples on the *producer* side, symmetric to the
/// consumer-side internal activation cache (CacheSize) of the paper.
using TupleChunk = std::vector<Tuple>;

/// The sequential unit of work of the Lera-par execution model (Section 2).
///
/// A *control activation* (trigger) starts a triggered operation instance,
/// which then processes its whole fragment. A *data activation* conveys a
/// chunk of tuples to a pipelined operation instance: as many as the
/// scheduler's derived grain (sched/scheduler.h, step 5), or one tuple in
/// the paper-faithful chunk_size=1 mode. Either way, one activation is
/// executed by exactly one thread, sequentially.
struct Activation {
  enum class Kind : uint8_t { kTrigger, kData };

  Kind kind = Kind::kTrigger;
  /// Payload tuples; meaningful only when kind == kData.
  TupleChunk tuples;

  static Activation Trigger() { return Activation{Kind::kTrigger, {}}; }
  static Activation DataChunk(TupleChunk chunk) {
    return Activation{Kind::kData, std::move(chunk)};
  }

  bool is_trigger() const { return kind == Kind::kTrigger; }

  /// Queue-accounting units: a trigger is one unit of work, a data
  /// activation counts its tuples. Bounded-queue capacity and the
  /// operation's pending counter are denominated in these units so
  /// back-pressure keeps its meaning under chunking.
  size_t unit_count() const {
    return is_trigger() ? 1 : tuples.size();
  }
};

}  // namespace dbs3

#endif  // DBS3_ENGINE_ACTIVATION_H_
