// Random Early Detection (RED) queue, ns-2 semantics.
//
// Implements classic RED (Floyd & Jacobson) with the `gentle_` extension used
// by the paper's test-bed: the drop probability ramps from max_p at max_th to
// 1 at 2*max_th instead of jumping to 1. The average queue estimate decays
// during idle periods as if `m` average-size packets had been serviced, as in
// ns-2.
//
// The paper's test-bed configures RED with min_th = 0.2B, max_th = 0.8B,
// w_q = 0.002, max_p = 0.1, gentle = true, B = RTT * R_bottle; the helper
// `RedParams::paper_testbed` reproduces that.
#pragma once

#include <memory_resource>

#include "net/queue.hpp"
#include "util/fifo.hpp"
#include "util/rng.hpp"

namespace pdos {

class Scheduler;

struct RedParams {
  double min_th = 5;      // packets
  double max_th = 15;     // packets
  double wq = 0.002;      // EWMA weight for the average queue size
  double max_p = 0.1;     // drop probability at max_th
  bool gentle = true;     // ramp max_p -> 1 over [max_th, 2*max_th]
  std::size_t capacity = 60;  // physical buffer, packets

  /// RED configuration from §4.2: thresholds at 20% / 80% of a buffer sized
  /// by the bandwidth-delay rule of thumb B = RTT * R_bottle.
  static RedParams paper_testbed(std::size_t buffer_packets);

  void validate() const;
};

class RedQueue : public QueueDiscipline {
 public:
  /// The packet buffer takes its chunks from `memory` (default: the global
  /// heap; pass the Simulator's arena for warm-reuse scenarios).
  RedQueue(RedParams params, Rng rng,
           std::pmr::memory_resource* memory =
               std::pmr::get_default_resource());

  bool enqueue(Packet pkt) override;
  Packet dequeue_nonempty() override;
  Packet dequeue_nonempty_at(Time service_start) override;
  std::size_t length() const override { return buffer_.size(); }
  std::size_t capacity() const override { return params_.capacity; }

  void bind(const Scheduler* clock, BitRate service_rate,
            Bytes mean_packet_bytes) override;

  /// Current EWMA queue-size estimate (packets); exposed for tests.
  double avg() const { return avg_; }

  const RedParams& params() const { return params_; }

  std::uint64_t early_drops() const { return early_drops_; }
  std::uint64_t forced_drops() const { return forced_drops_; }

 private:
  void update_avg();
  bool should_early_drop();

  RedParams params_;
  Rng rng_;
  // Chunked: holds memory for the packets queued now, not for
  // `params_.capacity`.
  Fifo<Packet> buffer_;

  const Scheduler* clock_ = nullptr;  // may be null in unit tests
  double mean_service_time_ = 0.0;    // seconds per average packet
  double avg_ = 0.0;
  int count_ = -1;        // packets since last drop while avg in [min_th, ...)
  bool idle_ = true;      // queue empty, awaiting next arrival
  Time idle_start_ = 0.0;
  std::uint64_t early_drops_ = 0;
  std::uint64_t forced_drops_ = 0;
};

}  // namespace pdos
