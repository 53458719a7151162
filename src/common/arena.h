#ifndef DBS3_COMMON_ARENA_H_
#define DBS3_COMMON_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

namespace dbs3 {

/// A bump allocator for transient kernel state (selection vectors, hash
/// arrays, column views) whose lifetime is one batch of work.
///
/// Durner et al. measure allocator traffic as a multi-factor swing for
/// parallel query processing; the ChunkPool already removed it from the
/// tuple transport, and the arena removes it from the batch kernels:
/// blocks are allocated once, Reset() rewinds the bump pointer without
/// freeing, and steady-state kernel invocations perform zero heap
/// allocations.
///
/// Only trivially destructible element types are supported — Reset() and
/// the destructor run no element destructors.
///
/// Not thread-safe: each thread uses its own arena (the kernels use the
/// per-thread arena returned by ThreadLocalKernelArena()).
class Arena {
 public:
  /// `min_block_bytes` sizes the first block; later blocks double until
  /// kMaxBlockBytes (requests larger than that get a dedicated block).
  explicit Arena(size_t min_block_bytes = 1 << 16)
      : next_block_bytes_(min_block_bytes < kMinBlockBytes ? kMinBlockBytes
                                                           : min_block_bytes) {
  }

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Raw allocation of `bytes` aligned to `align` (a power of two).
  void* Allocate(size_t bytes, size_t align) {
    uintptr_t p = (cur_ + (align - 1)) & ~(uintptr_t{align} - 1);
    if (p + bytes > end_) {
      RefillFor(bytes, align);
      p = (cur_ + (align - 1)) & ~(uintptr_t{align} - 1);
    }
    cur_ = p + bytes;
    return reinterpret_cast<void*>(p);
  }

  /// An uninitialized array of `n` elements of trivially destructible T.
  template <typename T>
  T* AllocateArrayOf(size_t n) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "Arena runs no destructors");
    return static_cast<T*>(Allocate(n * sizeof(T), alignof(T)));
  }

  /// Rewinds the bump pointer to the first block. Blocks are retained, so
  /// a warmed arena serves subsequent batches without touching the heap.
  void Reset() {
    block_ = 0;
    if (blocks_.empty()) {
      cur_ = end_ = 0;
    } else {
      cur_ = reinterpret_cast<uintptr_t>(blocks_[0].data.get());
      end_ = cur_ + blocks_[0].bytes;
    }
  }

  /// A position the arena can later be rewound to (stack discipline).
  struct Mark {
    size_t block = 0;
    uintptr_t cur = 0;
  };

  Mark mark() const { return Mark{block_, cur_}; }

  /// Rewinds to `m`; allocations made after mark() are recycled. `m` must
  /// come from this arena and follow stack order.
  void Rewind(Mark m) {
    block_ = m.block;
    if (blocks_.empty()) {
      cur_ = end_ = 0;
      return;
    }
    const uintptr_t base =
        reinterpret_cast<uintptr_t>(blocks_[block_].data.get());
    // A mark taken before the first block existed has cur == 0; rewinding
    // to it means the start of (now-allocated) block 0, not address zero.
    cur_ = m.cur == 0 ? base : m.cur;
    end_ = base + blocks_[block_].bytes;
  }

  /// Total bytes of owned blocks (monotone; Reset does not shrink it).
  size_t reserved_bytes() const {
    size_t total = 0;
    for (const Block& b : blocks_) total += b.bytes;
    return total;
  }

  /// Heap blocks allocated over the arena's lifetime. A steady-state
  /// workload holds this constant — the zero-allocation CI gate reads it.
  size_t block_count() const { return blocks_.size(); }

 private:
  static constexpr size_t kMinBlockBytes = 1 << 12;
  static constexpr size_t kMaxBlockBytes = 1 << 22;

  struct Block {
    std::unique_ptr<char[]> data;
    size_t bytes = 0;
  };

  /// Advances to the next retained block that fits, or allocates one.
  void RefillFor(size_t bytes, size_t align) {
    const size_t need = bytes + align;
    while (block_ + 1 < blocks_.size()) {
      ++block_;
      if (blocks_[block_].bytes >= need) {
        SetCursor();
        return;
      }
    }
    size_t size = next_block_bytes_;
    while (size < need) size <<= 1;
    if (next_block_bytes_ < kMaxBlockBytes) next_block_bytes_ <<= 1;
    blocks_.push_back(Block{std::make_unique<char[]>(size), size});
    block_ = blocks_.size() - 1;
    SetCursor();
  }

  void SetCursor() {
    cur_ = reinterpret_cast<uintptr_t>(blocks_[block_].data.get());
    end_ = cur_ + blocks_[block_].bytes;
  }

  std::vector<Block> blocks_;
  size_t block_ = 0;
  uintptr_t cur_ = 0;
  uintptr_t end_ = 0;
  size_t next_block_bytes_;
};

/// Rewinds an arena to its construction-time mark on scope exit, so nested
/// kernel invocations on one thread stack their transient state.
class ScopedArena {
 public:
  explicit ScopedArena(Arena* arena) : arena_(arena), mark_(arena->mark()) {}
  ~ScopedArena() { arena_->Rewind(mark_); }

  ScopedArena(const ScopedArena&) = delete;
  ScopedArena& operator=(const ScopedArena&) = delete;

  Arena* get() const { return arena_; }

 private:
  Arena* arena_;
  Arena::Mark mark_;
};

}  // namespace dbs3

#endif  // DBS3_COMMON_ARENA_H_
