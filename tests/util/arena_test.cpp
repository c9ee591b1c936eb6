// MonotonicArena: alignment, geometric block growth, oversize requests,
// the rewind contract (retained blocks are re-walked in order, so a warm
// epoch replays the cold epoch's layout without new system memory), and
// size-class recycling (a freed block serves the next request of its size).
#include "util/arena.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory_resource>
#include <vector>

namespace pdos {
namespace {

TEST(ArenaTest, AllocationsRespectAlignment) {
  MonotonicArena arena(256);
  for (std::size_t alignment : {1u, 2u, 4u, 8u, 16u, 64u}) {
    void* p = arena.allocate(3, alignment);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % alignment, 0u)
        << "alignment " << alignment;
  }
}

TEST(ArenaTest, AllocationsDoNotOverlap) {
  MonotonicArena arena(64);  // force several block spills
  std::vector<std::pair<char*, std::size_t>> chunks;
  for (int i = 0; i < 100; ++i) {
    const std::size_t n = 1 + static_cast<std::size_t>(i % 37);
    auto* p = static_cast<char*>(arena.allocate(n, 1));
    std::memset(p, i, n);
    chunks.emplace_back(p, n);
  }
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    const auto [p, n] = chunks[i];
    for (std::size_t b = 0; b < n; ++b) {
      ASSERT_EQ(static_cast<unsigned char>(p[b]),
                static_cast<unsigned char>(i))
          << "chunk " << i << " byte " << b << " was overwritten";
    }
  }
}

TEST(ArenaTest, RewindRetainsBlocksAndReplaysLayout) {
  MonotonicArena arena(128);
  std::vector<void*> first;
  for (int i = 0; i < 64; ++i) first.push_back(arena.allocate(48, 8));
  const std::size_t reserved = arena.bytes_reserved();
  const std::size_t blocks = arena.block_count();
  ASSERT_GT(blocks, 1u) << "test should span several blocks";

  arena.rewind();
  EXPECT_EQ(arena.bytes_in_use(), 0u);
  EXPECT_EQ(arena.bytes_reserved(), reserved) << "rewind must not free";
  EXPECT_EQ(arena.block_count(), blocks);

  // The identical allocation sequence lands on the identical addresses.
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(arena.allocate(48, 8), first[static_cast<std::size_t>(i)])
        << "allocation " << i;
  }
  EXPECT_EQ(arena.bytes_reserved(), reserved)
      << "warm epoch must not grow the arena";
}

TEST(ArenaTest, OversizeRequestGetsDedicatedBlock) {
  MonotonicArena arena(64);
  const std::size_t big = 1 << 20;
  auto* p = static_cast<char*>(arena.allocate(big, 16));
  ASSERT_NE(p, nullptr);
  std::memset(p, 0xab, big);  // the whole span must be writable
  EXPECT_GE(arena.bytes_reserved(), big);
}

TEST(ArenaTest, ReleaseFreesEverything) {
  MonotonicArena arena(128);
  for (int i = 0; i < 32; ++i) (void)arena.allocate(100, 8);
  arena.release();
  EXPECT_EQ(arena.bytes_in_use(), 0u);
  EXPECT_EQ(arena.bytes_reserved(), 0u);
  EXPECT_EQ(arena.block_count(), 0u);
  // Still usable afterwards.
  EXPECT_NE(arena.allocate(16, 8), nullptr);
}

TEST(ArenaTest, WorksAsPmrUpstream) {
  MonotonicArena arena;
  std::pmr::vector<int> v(&arena);
  for (int i = 0; i < 1000; ++i) v.push_back(i);
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(v[static_cast<std::size_t>(i)], i);
  EXPECT_GT(arena.bytes_in_use(), 0u);
  // Growth returned each outgrown buffer to the arena; shrinking returns
  // the last one, so nothing the vector held is still counted live.
  v.clear();
  v.shrink_to_fit();
  EXPECT_EQ(arena.bytes_in_use(), 0u);
}

TEST(ArenaTest, FreedBlockServesTheNextRequestOfItsSize) {
  MonotonicArena arena;
  void* a = arena.allocate(456, 8);
  void* b = arena.allocate(456, 8);
  arena.deallocate(a, 456, 8);
  arena.deallocate(b, 456, 8);
  // Last in, first out, and no bump while a block of the size is free.
  const std::size_t reserved = arena.bytes_reserved();
  EXPECT_EQ(arena.allocate(456, 8), b);
  EXPECT_EQ(arena.allocate(456, 8), a);
  EXPECT_EQ(arena.bytes_reserved(), reserved);
  // Any alignment up to a pointer's shares the size's list.
  void* c = arena.allocate(64, 4);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(c) % alignof(void*), 0u);
  arena.deallocate(c, 64, 4);
  EXPECT_EQ(arena.allocate(64, 8), c);
}

TEST(ArenaTest, FreedBlockIsNotReusedForAnotherSize) {
  MonotonicArena arena;
  void* a = arena.allocate(128, 8);
  arena.deallocate(a, 128, 8);
  void* smaller = arena.allocate(64, 8);
  void* larger = arena.allocate(256, 8);
  EXPECT_NE(smaller, a);
  EXPECT_NE(larger, a);
  // Blocks the lists do not cover (over-aligned, oversized) are not
  // recycled either; they wait for the next rewind.
  void* wide = arena.allocate(64, 64);
  arena.deallocate(wide, 64, 64);
  EXPECT_NE(arena.allocate(64, 64), wide);
  void* big = arena.allocate(4096, 8);
  arena.deallocate(big, 4096, 8);
  EXPECT_NE(arena.allocate(4096, 8), big);
  // The size's own request still finds the freed block.
  EXPECT_EQ(arena.allocate(128, 8), a);
}

TEST(ArenaTest, RewindEmptiesTheFreeLists) {
  MonotonicArena arena(4096);
  void* first = arena.allocate(48, 8);
  void* second = arena.allocate(48, 8);
  arena.deallocate(second, 48, 8);
  arena.rewind();
  // After a rewind the bump cursor, not the stale free list, decides: the
  // cold sequence replays onto the same addresses.
  EXPECT_EQ(arena.allocate(48, 8), first);
  EXPECT_EQ(arena.allocate(48, 8), second);
  EXPECT_NE(arena.allocate(48, 8), second);
}

TEST(ArenaTest, BytesInUseCountsLiveBytes) {
  MonotonicArena arena;
  void* a = arena.allocate(100, 4);  // not recycled: not a whole granule
  void* b = arena.allocate(200, 8);
  void* c = arena.allocate(5000, 8);  // not recycled: oversized
  EXPECT_EQ(arena.bytes_in_use(), 5300u);
  arena.deallocate(b, 200, 8);
  EXPECT_EQ(arena.bytes_in_use(), 5100u);
  arena.deallocate(a, 100, 4);
  arena.deallocate(c, 5000, 8);
  EXPECT_EQ(arena.bytes_in_use(), 0u);
  (void)arena.allocate(200, 8);  // recycled from b
  EXPECT_EQ(arena.bytes_in_use(), 200u);
  arena.rewind();
  EXPECT_EQ(arena.bytes_in_use(), 0u);
}

}  // namespace
}  // namespace pdos
