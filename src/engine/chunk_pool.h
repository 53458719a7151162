#ifndef DBS3_ENGINE_CHUNK_POOL_H_
#define DBS3_ENGINE_CHUNK_POOL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "engine/activation.h"

namespace dbs3 {

/// A per-execution free list of TupleChunk buffers.
///
/// The activation pipeline is a producer/consumer ring: an emitter fills a
/// chunk, the consumer's worker drains it and hands the buffer back. Without
/// recycling, every chunk is a fresh heap vector (and, one layer down, every
/// slot a fresh Tuple), so the steady-state data path is dominated by
/// allocator traffic — precisely the multi-factor swing Durner et al.
/// measure for parallel query processing. With the pool, a buffer cycles
/// emitter -> queue -> worker -> pool -> emitter; after warm-up the chunk
/// path performs zero allocations.
///
/// Released buffers keep their Tuple elements (and those keep their value
/// storage): emitters overwrite recycled slots in place via
/// Tuple::AssignFrom/AssignConcat, which is what extends the zero-allocation
/// property from the chunk vectors down to the tuple payloads.
///
/// Thread safety: shared by every operation of an execution; all methods are
/// safe to call concurrently. In front of the shared (mutex-protected) free
/// list sits a small per-thread cache, refilled and spilled in batches: at
/// chunk_size 1 — the paper-faithful per-tuple mode, one chunk per tuple —
/// the pool sees two calls per tuple from different threads, and a single
/// shared mutex there would serialize the whole data path. With the cache,
/// the steady-state Acquire/Release pair is two thread-local vector
/// operations; the mutex is touched once per kTlsBatch buffers.
///
/// The cache is deliberately not tied to a pool instance: buffers are plain
/// self-owning vectors, so one execution's thread may hand its cached
/// buffers to the next execution on that thread. Pool stats stay exact for
/// allocated/reused/released; `free_buffers` counts only the shared list.
class ChunkPool {
 public:
  /// Buffers moved between the thread-local cache and the shared free list
  /// per refill/spill (one mutex acquisition amortized over the batch). The
  /// cache holds at most 2 * kTlsBatch buffers.
  static constexpr size_t kTlsBatch = 16;

  /// `max_free` bounds the buffers retained for reuse on the shared list;
  /// spills beyond the bound free their buffers instead (counted as
  /// discarded).
  explicit ChunkPool(size_t max_free = 1024) : max_free_(max_free) {}

  ChunkPool(const ChunkPool&) = delete;
  ChunkPool& operator=(const ChunkPool&) = delete;

  /// Hands out a buffer: a recycled one when available (its elements are
  /// kept — callers overwrite slots in place), else a fresh vector with
  /// `reserve_hint` capacity.
  TupleChunk Acquire(size_t reserve_hint) EXCLUDES(mu_);

  /// Returns a drained buffer to the pool. Capacity-less chunks (moved-from
  /// or never filled) are ignored; beyond max_free the buffer is freed.
  void Release(TupleChunk&& chunk) EXCLUDES(mu_);

  struct Stats {
    /// Acquire calls that had to allocate a fresh buffer.
    uint64_t allocated = 0;
    /// Acquire calls served from the free list (steady-state hits).
    uint64_t reused = 0;
    /// Buffers handed back by consumers (drain, cancellation, rejection).
    uint64_t released = 0;
    /// Releases dropped because the free list was at max_free.
    uint64_t discarded = 0;
    /// Buffers currently idle in the free list.
    size_t free_buffers = 0;
  };
  Stats stats() const EXCLUDES(mu_);

 private:
  /// The calling thread's buffer cache (shared across pool instances; see
  /// the class comment for why that is sound).
  static std::vector<TupleChunk>& TlsCache();

  mutable Mutex mu_{"ChunkPool::mu"};
  std::vector<TupleChunk> free_ GUARDED_BY(mu_);
  const size_t max_free_;
  std::atomic<uint64_t> allocated_{0};
  std::atomic<uint64_t> reused_{0};
  std::atomic<uint64_t> released_{0};
  std::atomic<uint64_t> discarded_{0};
};

}  // namespace dbs3

#endif  // DBS3_ENGINE_CHUNK_POOL_H_
