#ifndef DBS3_ENGINE_VECTOR_KERNELS_H_
#define DBS3_ENGINE_VECTOR_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <span>

#include "common/arena.h"
#include "common/hash.h"
#include "engine/vector/column_batch.h"
#include "storage/temp_index.h"
#include "storage/value.h"

namespace dbs3 {

/// Spans (data activations, fragments) with at least this many tuples take
/// the batch kernels; smaller ones — chunk_size=1 in particular — stay on
/// the row loop, so the paper's per-tuple activations never pay the column
/// views' setup.
inline constexpr size_t kMinBatchRows = 4;

/// Hashes a whole int64 key column in one pass (SplitMix64 finalizer —
/// identical to Value::Hash on integers, so batch and row paths agree on
/// every hash-dependent decision: bucket choice, partition routing).
inline void HashInt64Column(const int64_t* keys, size_t n, uint64_t* out) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = HashInt64(static_cast<uint64_t>(keys[i]));
  }
}

/// Hash fallback for mixed or string key columns: Value::Hash per row.
inline void HashValueColumn(const Value* const* keys, size_t n,
                            uint64_t* out) {
  for (size_t i = 0; i < n; ++i) out[i] = keys[i]->Hash();
}

/// Hashes column `col` of `batch` into an arena array: the int64 one-pass
/// kernel when the column is all-integer, Value::Hash per row otherwise.
inline const uint64_t* HashColumn(ColumnBatch& batch, size_t col,
                                  Arena* arena) {
  const size_t n = batch.num_rows();
  uint64_t* out = arena->AllocateArrayOf<uint64_t>(n);
  const int64_t* ints = batch.Ints(col);
  if (ints != nullptr) {
    HashInt64Column(ints, n, out);
  } else {
    HashValueColumn(batch.Values(col), n, out);
  }
  return out;
}

/// First matches of one tile of probe keys against a TempIndex. On the
/// int-key path `ints` holds the gathered keys (chains continue via
/// NextMatchAfter(pos, ints[i])); otherwise `hashes` / `values` do
/// (NextMatchAfter(pos, hashes[i], *values[i])).
struct TileMatches {
  const uint32_t* first = nullptr;
  const int64_t* ints = nullptr;
  const uint64_t* hashes = nullptr;
  const Value* const* values = nullptr;
};

/// Resolves the first match of every row's key in column `col` with one
/// batched, prefetching probe: straight off the int64 column when both the
/// index and the column are int-keyed, over the hashed column otherwise.
/// Scratch lives in `arena`.
inline TileMatches ProbeFirstMatches(const TempIndex& index,
                                     ColumnBatch& batch, size_t col,
                                     Arena* arena) {
  const size_t n = batch.num_rows();
  uint32_t* first = arena->AllocateArrayOf<uint32_t>(n);
  TileMatches m;
  m.first = first;
  m.ints = index.int_keyed() ? batch.Ints(col) : nullptr;
  if (m.ints != nullptr) {
    index.ProbeKeys(std::span<const int64_t>(m.ints, n), first);
    return m;
  }
  m.hashes = HashColumn(batch, col, arena);
  m.values = batch.Values(col);
  index.ProbeHashed(std::span<const uint64_t>(m.hashes, n), m.values, first);
  return m;
}

}  // namespace dbs3

#endif  // DBS3_ENGINE_VECTOR_KERNELS_H_
