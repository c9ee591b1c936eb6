// Bump allocator with size-class recycling and high-water rewind.
//
// One sweep point's object graph — nodes, links, queues, TCP endpoints,
// sources — lives for exactly one run and dies together, which is the
// textbook arena lifetime. `MonotonicArena` carves objects out of a small
// list of large blocks with a bump pointer; `rewind()` returns the cursor
// to the first block while *retaining* every block, so a warm simulator
// that rebuilds the same scenario re-traces the same layout without
// touching the system allocator at all.
//
// Storage that dies mid-run is recycled: `deallocate` pushes a small block
// onto a free list picked by its size (one array index, no search) and the
// next allocation of that size pops it before bumping. The packet FIFOs
// (util/fifo.hpp) take and return fixed chunks this way, so a run's
// footprint follows the packets alive at once, not the sum of every
// buffer's peak. Blocks too large or too aligned to recycle stay where they
// are until the next rewind.
//
// The arena is a `std::pmr::memory_resource`, so component-internal
// containers (`std::pmr::vector` route tables, packet FIFOs, reorder
// buffers) ride the same blocks as the components themselves — one point's
// working set is a few contiguous megabytes instead of a few thousand
// scattered heap nodes. Under AddressSanitizer every byte the arena holds
// but has not handed out is poisoned, so a stale pointer into a recycled
// block faults at the access. Not thread-safe: each sweep worker owns one
// arena.
#pragma once

#include <array>
#include <cstddef>
#include <memory>
#include <memory_resource>
#include <vector>

namespace pdos {

class MonotonicArena final : public std::pmr::memory_resource {
 public:
  /// `first_block_bytes` sizes the first block; later blocks grow 4x up to
  /// a cap, and oversized requests get a block of their own.
  explicit MonotonicArena(std::size_t first_block_bytes = kDefaultBlockBytes);
  ~MonotonicArena() override = default;

  MonotonicArena(const MonotonicArena&) = delete;
  MonotonicArena& operator=(const MonotonicArena&) = delete;

  /// Reset the cursor to the start of the first block and empty the free
  /// lists. Every block is retained, so re-allocating the same (or a
  /// smaller) sequence of objects performs no system allocation. Objects
  /// handed out before the rewind must already be destroyed — their
  /// storage is reused.
  void rewind();

  /// Free every block. Mostly for tests; destruction does this implicitly.
  void release();

  /// Live bytes: handed out since construction or the last rewind and not
  /// yet deallocated (excluding alignment padding and block slack).
  std::size_t bytes_in_use() const { return in_use_; }
  /// Total bytes held in blocks (the arena's memory footprint).
  std::size_t bytes_reserved() const;
  std::size_t block_count() const { return blocks_.size(); }

 private:
  static constexpr std::size_t kDefaultBlockBytes = 64 * 1024;
  static constexpr std::size_t kMaxBlockBytes = 4 * 1024 * 1024;
  // Recycling granule: a recycled block's size is a multiple of it and its
  // address is aligned to it, so one free list per size serves every
  // alignment up to the granule.
  static constexpr std::size_t kGranule = alignof(void*);
  static constexpr std::size_t kMaxRecycledBytes = 1024;

  struct Block {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
  };
  // A recycled block, threaded through its own first bytes.
  struct FreeBlock {
    FreeBlock* next;
  };

  /// Free-list index of a (bytes, alignment) request, or 0 when such blocks
  /// are not recycled (larger than kMaxRecycledBytes, aligned beyond the
  /// granule, or not a whole number of granules).
  static std::size_t size_class(std::size_t bytes, std::size_t alignment) {
    return bytes % kGranule == 0 && alignment <= kGranule &&
                   bytes <= kMaxRecycledBytes
               ? bytes / kGranule
               : 0;
  }

  void* do_allocate(std::size_t bytes, std::size_t alignment) override;
  void do_deallocate(void* p, std::size_t bytes,
                     std::size_t alignment) override;
  bool do_is_equal(
      const std::pmr::memory_resource& other) const noexcept override {
    return this == &other;
  }

  /// Append a block of at least `min_bytes` and make it current.
  void add_block(std::size_t min_bytes);

  std::vector<Block> blocks_;
  std::size_t current_ = 0;  // index into blocks_ (one past none when empty)
  std::size_t offset_ = 0;   // bump cursor within blocks_[current_]
  std::size_t next_block_bytes_;
  std::size_t in_use_ = 0;
  // Head of each size class's free list, indexed by size_class().
  std::array<FreeBlock*, kMaxRecycledBytes / kGranule + 1> free_{};
};

}  // namespace pdos
