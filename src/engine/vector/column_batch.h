#ifndef DBS3_ENGINE_VECTOR_COLUMN_BATCH_H_
#define DBS3_ENGINE_VECTOR_COLUMN_BATCH_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>

#include "common/arena.h"
#include "storage/tuple.h"

namespace dbs3 {

/// The rows a kernel stage operates on, as indices into a ColumnBatch.
///
/// Kernels thread one of these through the stages of a batch pipeline:
/// a predicate kernel writes the surviving row ids (always ascending), the
/// next stage reads them, and the emit loop walks the final selection. The
/// id array lives in the batch's arena, so building one allocates nothing
/// once the arena is warm.
class SelectionVector {
 public:
  /// An empty selection with room for `capacity` ids in `arena`.
  SelectionVector(Arena* arena, size_t capacity)
      : ids_(arena->AllocateArrayOf<uint32_t>(capacity)), size_(0) {}

  /// Identity selection [0, n): every row selected, in order.
  static SelectionVector All(Arena* arena, size_t n) {
    SelectionVector sel(arena, n);
    for (size_t i = 0; i < n; ++i) sel.ids_[i] = static_cast<uint32_t>(i);
    sel.size_ = n;
    return sel;
  }

  uint32_t* data() { return ids_; }
  const uint32_t* data() const { return ids_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  uint32_t operator[](size_t i) const { return ids_[i]; }

  /// Sets the logical size after a kernel filled data() directly.
  void set_size(size_t n) { size_ = n; }

 private:
  uint32_t* ids_;
  size_t size_;
};

/// A column-major view over one chunk of row tuples, materialized lazily:
/// a column's array is built on first access (one pass over the chunk) and
/// cached for the remaining kernel stages of the batch.
///
/// Two views exist per column. Ints() is the hot one: a contiguous int64
/// array the type-specialized kernels stream over branch-free; it is
/// available iff every row holds an integer in that column (the
/// schema-typed case). Values() always works: an array of pointers to the
/// rows' Value slots, used by string comparisons, hash fallback, and the
/// batched index probe (which needs the Value for hash-collision key
/// confirmation).
///
/// All arrays live in the supplied arena; the viewed tuples must outlive
/// the batch. Not thread-safe — one batch per worker per activation.
class ColumnBatch {
 public:
  ColumnBatch(std::span<const Tuple> rows, Arena* arena)
      : rows_(rows),
        arena_(arena),
        num_columns_(rows.empty() ? 0 : rows.front().size()),
        columns_(arena->AllocateArrayOf<ColumnView>(num_columns_)) {
    for (size_t c = 0; c < num_columns_; ++c) columns_[c] = ColumnView{};
  }

  size_t num_rows() const { return rows_.size(); }
  size_t num_columns() const { return num_columns_; }
  const Tuple& row(size_t i) const { return rows_[i]; }

  /// The column as a contiguous int64 array, or nullptr when any row holds
  /// a non-integer there. Built on first call.
  const int64_t* Ints(size_t col) {
    assert(col < num_columns_);
    ColumnView& view = columns_[col];
    if (!view.ints_built) BuildInts(col, view);
    return view.ints;
  }

  /// Pointers to each row's Value in the column. Built on first call.
  const Value* const* Values(size_t col) {
    assert(col < num_columns_);
    ColumnView& view = columns_[col];
    if (!view.values_built) BuildValues(col, view);
    return view.values;
  }

 private:
  struct ColumnView {
    const int64_t* ints = nullptr;
    const Value** values = nullptr;
    bool ints_built = false;
    bool values_built = false;
  };

  void BuildInts(size_t col, ColumnView& view) {
    const size_t n = rows_.size();
    int64_t* out = arena_->AllocateArrayOf<int64_t>(n);
    for (size_t i = 0; i < n; ++i) {
      const int64_t* v = rows_[i].at(col).TryInt();
      if (v == nullptr) {
        view.ints_built = true;  // Mixed column: remember the miss.
        return;
      }
      out[i] = *v;
    }
    view.ints = out;
    view.ints_built = true;
  }

  void BuildValues(size_t col, ColumnView& view) {
    const size_t n = rows_.size();
    const Value** out = arena_->AllocateArrayOf<const Value*>(n);
    for (size_t i = 0; i < n; ++i) out[i] = &rows_[i].at(col);
    view.values = out;
    view.values_built = true;
  }

  std::span<const Tuple> rows_;
  Arena* arena_;
  size_t num_columns_;
  ColumnView* columns_;
};

/// The calling thread's kernel arena. Every batch-kernel OnDataBatch /
/// OnTrigger tile opens a ScopedArena on it, builds its ColumnBatch,
/// selection vectors, and hash arrays inside, and rewinds on exit — after
/// the first few batches warm the blocks, the kernels stop touching the
/// heap entirely.
Arena& ThreadLocalKernelArena();

}  // namespace dbs3

#endif  // DBS3_ENGINE_VECTOR_COLUMN_BATCH_H_
