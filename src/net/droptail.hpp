// Tail-drop FIFO queue.
#pragma once

#include <memory_resource>

#include "net/queue.hpp"
#include "util/fifo.hpp"

namespace pdos {

class DropTailQueue : public QueueDiscipline {
 public:
  /// `capacity_packets` is the buffer size in packets (> 0). The packet
  /// buffer takes its chunks from `memory` (default: the global heap; pass
  /// the Simulator's arena for warm-reuse scenarios).
  explicit DropTailQueue(std::size_t capacity_packets,
                         std::pmr::memory_resource* memory =
                             std::pmr::get_default_resource());

  bool enqueue(Packet pkt) override;
  Packet dequeue_nonempty() override;
  std::size_t length() const override { return buffer_.size(); }
  std::size_t capacity() const override { return capacity_; }

 private:
  std::size_t capacity_;
  // Chunked, so it holds memory for the packets queued now, not for
  // `capacity_`; construction allocates nothing, which keeps sweeps that
  // build thousands of queues cheap.
  Fifo<Packet> buffer_;
};

}  // namespace pdos
