// Chunked FIFO over a `std::pmr::memory_resource`.
//
// The one FIFO of the packet engine: a link's propagation pipe and the RED
// and DropTail packet buffers. Entries live in fixed chunks of kChunkSlots
// slots linked head to tail. A push that finds the tail chunk full takes a
// fresh chunk from the memory resource; a pop that empties the head chunk
// hands it straight back. The memory a FIFO holds therefore follows its
// live entries — at most kChunkSlots - 1 idle slots at each end — rather
// than the high-water mark of its whole run. A drained FIFO
// keeps its one chunk, so a queue that empties and refills inside a chunk
// touches no allocator. Over the simulator's arena (util/arena.hpp) a
// returned chunk goes onto the arena's free list for its size, and the
// next chunk any FIFO of the same element type takes is that one, still
// warm in cache.
//
// FIFO only: push_back / front / pop_front. `T` must be move-constructible;
// move-only payloads are fine.
#pragma once

#include <cstddef>
#include <memory_resource>
#include <new>
#include <utility>

#include "util/assert.hpp"

namespace pdos {

template <typename T>
class Fifo {
 public:
  static constexpr std::size_t kChunkSlots = 8;

  /// Chunks come from and go back to `memory`, which must outlive the FIFO.
  explicit Fifo(std::pmr::memory_resource* memory =
                    std::pmr::get_default_resource())
      : memory_(memory) {}

  Fifo(const Fifo&) = delete;
  Fifo& operator=(const Fifo&) = delete;

  /// Destroys the remaining entries and returns every chunk.
  ~Fifo() {
    while (size_ != 0) pop_front();
    if (head_ != nullptr) release(head_);
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  void push_back(T&& value) {
    if (tail_slot_ == kChunkSlots) add_tail_chunk();
    ::new (tail_->raw(tail_slot_)) T(std::move(value));
    ++tail_slot_;
    ++size_;
  }
  void push_back(const T& value) { push_back(T(value)); }

  const T& front() const {
    PDOS_CHECK(size_ > 0);
    return *head_->slot(head_slot_);
  }

  T pop_front() {
    PDOS_CHECK(size_ > 0);
    T* slot = head_->slot(head_slot_);
    T value = std::move(*slot);
    slot->~T();
    --size_;
    if (size_ == 0) {
      // Drained: head_ == tail_. Keep the chunk and restart at its front.
      head_slot_ = 0;
      tail_slot_ = 0;
    } else if (++head_slot_ == kChunkSlots) {
      Chunk* spent = head_;
      head_ = head_->next;
      head_slot_ = 0;
      release(spent);
    }
    return value;
  }

 private:
  struct Chunk {
    Chunk* next;
    alignas(T) unsigned char storage[kChunkSlots * sizeof(T)];

    void* raw(std::size_t i) { return storage + i * sizeof(T); }
    T* slot(std::size_t i) { return std::launder(static_cast<T*>(raw(i))); }
  };

  void add_tail_chunk() {
    // Default-initialized: the slots stay raw until a push constructs them.
    auto* chunk =
        ::new (memory_->allocate(sizeof(Chunk), alignof(Chunk))) Chunk;
    chunk->next = nullptr;
    if (tail_ != nullptr) {
      tail_->next = chunk;
    } else {
      head_ = chunk;
    }
    tail_ = chunk;
    tail_slot_ = 0;
  }

  void release(Chunk* chunk) {
    memory_->deallocate(chunk, sizeof(Chunk), alignof(Chunk));
  }

  std::pmr::memory_resource* memory_;
  Chunk* head_ = nullptr;  // oldest chunk; front() is its head_slot_
  Chunk* tail_ = nullptr;  // newest chunk; the next push fills tail_slot_
  std::size_t head_slot_ = 0;
  std::size_t tail_slot_ = kChunkSlots;  // "full": the first push adds a chunk
  std::size_t size_ = 0;
};

}  // namespace pdos
