// Property tests for the chunked FIFO against a std::deque reference.
//
// The FIFO is the link's propagation pipe, the RED and DropTail packet
// buffers, and the thread pool's task queues. These tests pin its contract
// where chunked buffers go wrong — pushes and pops that cross chunk
// boundaries, drain to empty then refill, move-only payloads — and its
// memory contract over the arena: it holds chunks for its live entries
// only, keeps one when drained, and returns every chunk when destroyed.
#include "util/fifo.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <random>
#include <vector>

#include "net/packet.hpp"
#include "sim/event.hpp"
#include "util/arena.hpp"
#include "util/assert.hpp"

namespace pdos {
namespace {

constexpr std::size_t kSlots = Fifo<int>::kChunkSlots;

/// Bytes one Fifo<int> chunk takes from `arena`, measured on a scratch FIFO.
std::size_t chunk_bytes(MonotonicArena& arena) {
  const std::size_t start = arena.bytes_in_use();
  Fifo<int> probe(&arena);
  probe.push_back(0);
  return arena.bytes_in_use() - start;
}

TEST(FifoTest, MatchesDequeReferenceUnderRandomChurn) {
  MonotonicArena arena;
  const std::size_t chunk = chunk_bytes(arena);
  ASSERT_GT(chunk, kSlots * sizeof(int));
  const std::size_t start = arena.bytes_in_use();
  Fifo<int> fifo(&arena);
  std::deque<int> ref;
  std::mt19937 rng(20250806);
  int next = 0;
  for (int step = 0; step < 100000; ++step) {
    // Alternate growth-biased and drain-biased phases so the FIFO both
    // spans many chunks and repeatedly empties out.
    const bool grow_phase = (step / 5000) % 2 == 0;
    const bool push = ref.empty() || (rng() % 10 < (grow_phase ? 7u : 3u));
    if (push) {
      fifo.push_back(int(next));
      ref.push_back(next);
      ++next;
    } else {
      ASSERT_EQ(fifo.front(), ref.front());
      ASSERT_EQ(fifo.pop_front(), ref.front());
      ref.pop_front();
    }
    ASSERT_EQ(fifo.size(), ref.size());
    ASSERT_EQ(fifo.empty(), ref.empty());
    // Memory follows the live entries: a partial chunk at each end at most.
    ASSERT_LE(arena.bytes_in_use() - start,
              (ref.size() / kSlots + 2) * chunk)
        << "step " << step;
  }
  while (!ref.empty()) {
    ASSERT_EQ(fifo.pop_front(), ref.front());
    ref.pop_front();
  }
  EXPECT_TRUE(fifo.empty());
}

TEST(FifoTest, OrderHoldsAcrossChunkBoundaries) {
  Fifo<int> fifo;
  // Head mid-chunk, then a fill that spans three more chunk boundaries.
  for (int i = 0; i < 5; ++i) fifo.push_back(int(i));
  EXPECT_EQ(fifo.pop_front(), 0);
  EXPECT_EQ(fifo.pop_front(), 1);
  for (int i = 5; i < 5 + 3 * static_cast<int>(kSlots); ++i) {
    fifo.push_back(int(i));
  }
  for (int i = 2; i < 5 + 3 * static_cast<int>(kSlots); ++i) {
    ASSERT_EQ(fifo.front(), i);
    ASSERT_EQ(fifo.pop_front(), i);
  }
  EXPECT_TRUE(fifo.empty());
}

TEST(FifoTest, DrainKeepsOneChunkAndRefills) {
  MonotonicArena arena;
  const std::size_t chunk = chunk_bytes(arena);
  const std::size_t start = arena.bytes_in_use();
  Fifo<int> fifo(&arena);
  EXPECT_EQ(arena.bytes_in_use(), start) << "construction allocates nothing";
  for (int i = 0; i < 4 * static_cast<int>(kSlots); ++i) fifo.push_back(int(i));
  EXPECT_EQ(arena.bytes_in_use() - start, 4 * chunk);
  while (!fifo.empty()) (void)fifo.pop_front();
  EXPECT_EQ(arena.bytes_in_use() - start, chunk)
      << "a drained FIFO keeps exactly one chunk";
  // Refilling within that chunk takes nothing more from the arena.
  for (int i = 0; i < static_cast<int>(kSlots); ++i) fifo.push_back(100 + i);
  EXPECT_EQ(arena.bytes_in_use() - start, chunk);
  for (int i = 0; i < static_cast<int>(kSlots); ++i) {
    EXPECT_EQ(fifo.pop_front(), 100 + i);
  }
}

TEST(FifoTest, FrontAndPopOnEmptyThrow) {
  Fifo<int> fifo;
  EXPECT_THROW(fifo.front(), InvariantError);
  EXPECT_THROW(fifo.pop_front(), InvariantError);
  fifo.push_back(1);
  (void)fifo.pop_front();
  EXPECT_THROW(fifo.pop_front(), InvariantError);
}

TEST(FifoTest, MoveOnlyPayloadsRunInOrder) {
  std::vector<int> ran;
  Fifo<InlineFn> fifo;
  for (int i = 0; i < 3 * static_cast<int>(kSlots); ++i) {
    fifo.push_back([&ran, i] { ran.push_back(i); });
  }
  while (!fifo.empty()) fifo.pop_front()();
  ASSERT_EQ(ran.size(), 3 * kSlots);
  for (int i = 0; i < static_cast<int>(ran.size()); ++i) {
    EXPECT_EQ(ran[static_cast<std::size_t>(i)], i);
  }
}

TEST(FifoTest, DestructionDestroysEntriesAndReturnsEveryChunk) {
  MonotonicArena arena;
  const std::size_t start = arena.bytes_in_use();
  auto token = std::make_shared<int>(0);
  {
    Fifo<InlineFn> fifo(&arena);
    for (int i = 0; i < 2 * static_cast<int>(kSlots) + 3; ++i) {
      fifo.push_back([token] { ++*token; });
    }
    fifo.pop_front()();  // head mid-chunk when the FIFO dies
    EXPECT_EQ(token.use_count(), 1 + 2 * static_cast<long>(kSlots) + 2);
    EXPECT_GT(arena.bytes_in_use(), start);
  }
  EXPECT_EQ(token.use_count(), 1) << "queued closures must be destroyed";
  EXPECT_EQ(arena.bytes_in_use(), start) << "every chunk must go back";
}

TEST(FifoTest, PacketFifoMovesPayloadsInOrder) {
  Fifo<Packet> fifo;
  for (int i = 0; i < 11; ++i) {
    Packet pkt;
    pkt.seq = i;
    pkt.size_bytes = 1040;
    fifo.push_back(std::move(pkt));
  }
  for (int i = 0; i < 11; ++i) {
    const Packet pkt = fifo.pop_front();
    EXPECT_EQ(pkt.seq, i);
    EXPECT_EQ(pkt.size_bytes, 1040u);
  }
}

#if defined(__SANITIZE_ADDRESS__)
TEST(FifoDeathTest, StaleWriteIntoReturnedChunkIsCaught) {
  // A chunk the FIFO hands back sits poisoned on the arena's free list
  // until it is handed out again, so a pointer kept past its pop faults.
  EXPECT_DEATH(
      {
        MonotonicArena arena;
        Fifo<int> fifo(&arena);
        for (int i = 0; i <= static_cast<int>(kSlots); ++i) {
          fifo.push_back(int(i));  // one full chunk plus one entry
        }
        volatile int* stale = const_cast<int*>(&fifo.front());
        for (std::size_t i = 0; i < kSlots; ++i) (void)fifo.pop_front();
        *stale = 42;  // the first chunk is back on the free list
      },
      "use-after-poison");
}
#endif

}  // namespace
}  // namespace pdos
