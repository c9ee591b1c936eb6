#include "util/arena.hpp"

#include <algorithm>
#include <cstdint>
#include <new>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace pdos {

namespace {

// AddressSanitizer sees the arena's blocks as one live heap allocation, so
// the arena marks what it holds but has not handed out itself: fresh
// blocks, rewound blocks and recycled blocks are poisoned, and do_allocate
// unpoisons exactly the bytes it returns.
void poison([[maybe_unused]] const void* p, [[maybe_unused]] std::size_t n) {
#if defined(__SANITIZE_ADDRESS__)
  ASAN_POISON_MEMORY_REGION(p, n);
#endif
}

void unpoison([[maybe_unused]] const void* p, [[maybe_unused]] std::size_t n) {
#if defined(__SANITIZE_ADDRESS__)
  ASAN_UNPOISON_MEMORY_REGION(p, n);
#endif
}

}  // namespace

MonotonicArena::MonotonicArena(std::size_t first_block_bytes)
    : next_block_bytes_(std::max<std::size_t>(first_block_bytes, 256)) {}

void MonotonicArena::rewind() {
  current_ = 0;
  offset_ = 0;
  in_use_ = 0;
  free_.fill(nullptr);
  for (const Block& block : blocks_) poison(block.data.get(), block.size);
}

void MonotonicArena::release() {
  blocks_.clear();
  rewind();
}

std::size_t MonotonicArena::bytes_reserved() const {
  std::size_t total = 0;
  for (const Block& block : blocks_) total += block.size;
  return total;
}

void MonotonicArena::add_block(std::size_t min_bytes) {
  const std::size_t size = std::max(next_block_bytes_, min_bytes);
  Block block;
  // Not zero-filled: every object is constructed in place, as after a
  // rewind, so the pages of a fresh block that no object reaches are never
  // faulted in.
  block.data = std::make_unique_for_overwrite<std::byte[]>(size);
  block.size = size;
  poison(block.data.get(), size);
  blocks_.push_back(std::move(block));
  current_ = blocks_.size() - 1;
  offset_ = 0;
  // 4x growth: the blocks up to the cap (64 KiB .. 4 MiB) total 5.3 MiB,
  // 2.7 MiB under twice the largest, which is glibc's heap trim threshold
  // once it has unmapped a block that size. With the run's other heap use
  // inside that margin, tearing such an arena down leaves its pages mapped
  // for the next cold build instead of returning them to be faulted back
  // in (DESIGN.md §10).
  if (next_block_bytes_ < kMaxBlockBytes) {
    next_block_bytes_ = std::min(next_block_bytes_ * 4, kMaxBlockBytes);
  }
}

void* MonotonicArena::do_allocate(std::size_t bytes, std::size_t alignment) {
  const std::size_t size_cls = size_class(bytes, alignment);
  if (size_cls != 0) {
    if (FreeBlock* block = free_[size_cls]) {
      unpoison(block, bytes);
      free_[size_cls] = block->next;
      in_use_ += bytes;
      return block;
    }
    // Bumped at the granule, so once recycled the block can serve any
    // request of its size class.
    alignment = kGranule;
  }
  // Walk forward through retained blocks until one fits. After a rewind the
  // same allocation sequence re-traces the same walk, so a warm epoch never
  // reaches the add_block fallback. Slack left in a skipped block is wasted
  // only until the next rewind.
  for (;;) {
    if (current_ < blocks_.size()) {
      Block& block = blocks_[current_];
      const auto base = reinterpret_cast<std::uintptr_t>(block.data.get());
      const std::uintptr_t aligned =
          (base + offset_ + (alignment - 1)) & ~(alignment - 1);
      const std::size_t start = static_cast<std::size_t>(aligned - base);
      if (start + bytes <= block.size) {
        offset_ = start + bytes;
        in_use_ += bytes;
        unpoison(block.data.get() + start, bytes);
        return block.data.get() + start;
      }
      if (current_ + 1 < blocks_.size()) {
        ++current_;
        offset_ = 0;
        continue;
      }
    }
    add_block(bytes + alignment);
  }
}

void MonotonicArena::do_deallocate(void* p, std::size_t bytes,
                                   std::size_t alignment) {
  in_use_ -= bytes;
  if (const std::size_t size_cls = size_class(bytes, alignment);
      size_cls != 0) {
    free_[size_cls] = ::new (p) FreeBlock{free_[size_cls]};
  }
  poison(p, bytes);
}

}  // namespace pdos
