// Point-to-point unidirectional link: queue + serialization + propagation.
//
// Arriving packets pass the arrival taps (instrumentation, e.g. the
// "incoming traffic" series of Figs. 2-3), then the queue discipline decides
// admission. The link serializes one packet at a time at `rate`; each
// serialized packet is delivered to the downstream handler after `delay`.
// Propagation is pipelined: several packets can be in flight concurrently.
//
// Hot-path layout: the packet being serialized sits in `in_service_` and
// packets in propagation sit in a chunked `Fifo`, so the per-packet events
// — the service timer and the delivery timer — capture only `this` and
// stay within InlineFn's inline storage. Because the propagation delay is
// the same for every packet, deliveries complete in departure order, so
// the propagation pipe is one FIFO of 56-byte (packet, deadline, rank)
// slots drained by a single restartable timer: the scheduler holds ONE
// delivery event per link no matter how many packets are in flight, which
// keeps the event heap — the simulator's hottest structure — proportional
// to the number of links, not to the bandwidth-delay product, and the
// pipe's chunks come from and go back to the simulator's arena, so its
// memory follows the packets in flight. Taps are `PacketTap`s — the same
// inline-closure machinery as events, one function-pointer call per
// packet, no heap-held std::function state — and an untapped link's tap
// loops run over empty vectors.
//
// Large-scale modes (see DESIGN.md §11):
//
//   Fused (`set_fused(true)`): when the link is idle, enqueue -> service ->
//   transmit collapses into zero service events — handle() serializes the
//   packet synchronously and claims its delivery slot directly, so an
//   uncongested link costs one scheduler event per packet (the shared
//   delivery event) instead of two. Under contention the queue drains
//   *lazily*: no event sits at the serialization boundary at all. Instead,
//   every visit to the link (an arrival, a delivery from its own pipeline,
//   or an explicit settle()) first replays — analytically, at their exact
//   boundary times — all the services that would have completed by now, so
//   a congested link costs zero service/pump events no matter how deep the
//   backlog. The replay is safe because whenever a backlog exists the
//   packet that set `service_done_` is still propagating, so a delivery
//   event is always pending to drive the next catch-up, and every replayed
//   emission falls strictly after every due already in flight. Queue
//   semantics are preserved exactly: every packet passes the same
//   enqueue/dequeue sequence with the same queue occupancy (catch-up runs
//   before the arrival is offered to the queue, mirroring the eager
//   boundary-before-arrival order), so RED's RNG draws and EWMA updates
//   are untouched — RED learns the true dequeue instant through
//   `dequeue_nonempty_at`. Packet timings are bit-identical to the full
//   path; only the scheduler's event count and tie-break rank stream
//   differ, which is why fusion is opt-in — the golden figure digests pin
//   event counts on the default path. Samplers that read queue state
//   between packets must call settle() first — RunResult's occupancy
//   sampler does.
//
//   Express (queue-less constructor): no queue object at all — admission is
//   unconditional, serialization chains analytically off the previous
//   completion time, and no service or pump event ever exists. This is the
//   reverse-path ACK lane: constant delay, never congested, one sequenced
//   delivery event per link. Taps are rejected (PDOS_REQUIRE) — a scenario
//   that needs to observe or queue the reverse path must build a full link.
//
//   Chain handoff (`chain_via(hop)`, express only): instead of scheduling
//   its own delivery event, the link resolves `hop`'s next-hop for each
//   emitted packet and — when that hop is itself an express link — injects
//   the packet there with the analytic arrival time `fin + delay`. The
//   intermediate router's delivery event disappears; only the last express
//   hop before a real node schedules one. Valid because an express link's
//   completion times are non-decreasing and constant delay preserves that
//   order at the target, which must have no other upstream (the dumbbell's
//   reverse bottleneck fans out to per-flow sender lanes, each fed only by
//   it).
#pragma once

#include <vector>

#include "net/packet.hpp"
#include "net/queue.hpp"
#include "sim/simulator.hpp"
#include "util/assert.hpp"
#include "util/fifo.hpp"
#include "util/units.hpp"

namespace pdos {

class Node;

/// Per-packet observer: an inline-storage `void(const Packet&)` callable.
/// Captures must fit kInlineFnCapacity (32 bytes) — in practice a sink
/// pointer or two; oversized captures are a compile error, so no tap can
/// silently reintroduce a heap closure on the per-packet path.
using PacketTap = BasicInlineFn<kInlineFnCapacity, const Packet&>;

class Link : public PacketHandler {
 public:
  /// `queue` must be non-null and is not owned (typically arena-allocated
  /// via `Simulator::make`, so it shares the link's lifetime and the link's
  /// internal buffers ride the same arena); `queue` and `downstream` must
  /// outlive the link.
  Link(Simulator& sim, BitRate rate, Time delay, QueueDiscipline* queue,
       PacketHandler* downstream, Bytes mean_packet_bytes = 1040);

  /// Express lane: no queue discipline — every packet is admitted, FIFO
  /// serialization chains analytically, and the only scheduler event the
  /// link ever owns is the shared delivery event. For paths that are never
  /// congested (the dumbbell reverse/ACK direction); taps cannot be
  /// installed on an express link.
  Link(Simulator& sim, BitRate rate, Time delay, PacketHandler* downstream);

  /// Packet arrival from the upstream node.
  void handle(Packet pkt) override;

  /// Observe every arrival (before the queue's drop decision).
  void add_arrival_tap(PacketTap tap);

  /// Opt in to event fusion (idle-link serialization without a service
  /// event). Packet timings are unchanged; the scheduler's event count and
  /// tie-break ranks are not, so scenarios pinned by golden digests leave
  /// this off. No-op on an express link (always fused by construction).
  void set_fused(bool fused) { lazy_ = queue_ != nullptr && fused; }

  /// True for the queue-less express lane.
  bool express() const { return queue_ == nullptr; }

  /// Express only: hand emitted packets straight to the express link that
  /// `hop` routes them to, with the analytic arrival time, instead of
  /// scheduling this link's own delivery event. The target is resolved per
  /// destination once and cached. PDOS_REQUIREs that this link is express
  /// and (lazily, per destination) that the resolved hop is express too.
  void chain_via(Node* hop);

  /// Flush lazy catch-up: replay every service a fused link would have
  /// completed by now, so queue().length()/stats() reflect the true state
  /// mid-run. Instrumentation that samples queue state between packets
  /// (e.g. the occupancy sampler) calls this first; no-op on express or
  /// unfused links. Strictly-before-now, like an arrival: an eager
  /// boundary event tied with the sampler's timer would fire after it (the
  /// timer's rank is a full sample period old), so the sample must not
  /// include a tied dequeue.
  void settle() {
    if (lazy_ && queued_ != 0) catch_up(sim_.now(), /*include_now=*/false);
  }

  const QueueDiscipline& queue() const;
  QueueDiscipline& queue();
  bool busy() const {
    return service_event_pending_ || sim_.now() < service_done_;
  }

 private:
  // A departed, still-propagating packet with its delivery deadline and the
  // tie-break rank it claimed when it departed, so materializing its heap
  // node late cannot reorder it against other events at the same timestamp.
  // 56 bytes (the 40-byte Packet plus deadline and rank), written once per
  // departure and read once per delivery.
  struct InFlight {
    Packet pkt;
    Time when = 0.0;
    std::uint32_t seq = 0;
  };
  static_assert(sizeof(InFlight) == 56, "InFlight is a Packet plus 16 bytes");

  /// Express only: serialize a packet at an analytic arrival instant, >=
  /// now() and non-decreasing across calls — a chained upstream lane's
  /// handoff; handle() is the arrival == now() case.
  void inject_at(Packet pkt, Time arrival);
  void serve_next();
  void finish_service();
  void catch_up(Time now, bool include_now);
  Link* chain_resolve(NodeId dst);
  void emit(Packet pkt, Time fin);
  void arm_delivery(Time when, std::uint32_t seq);
  void deliver();

  /// Per-packet chain handoff: one bounds check + array load on the cache
  /// hit; the first packet per destination takes the route-walk slow path.
  Link* chain_target(NodeId dst) {
    if (static_cast<std::size_t>(dst) < chain_cache_.size()) {
      if (Link* hit = chain_cache_[static_cast<std::size_t>(dst)];
          hit != nullptr) {
        return hit;
      }
    }
    return chain_resolve(dst);
  }

  Simulator& sim_;
  BitRate rate_;
  Time delay_;
  QueueDiscipline* queue_;  // null on the express lane
  PacketHandler* downstream_;
  Node* chain_hop_ = nullptr;  // express chain handoff router, or null
  // A fused queued link: idle serves skip the service event and the queue
  // drains analytically (no boundary event exists). Set by set_fused().
  bool lazy_ = false;
  // True while a finish_service event is in the scheduler (the full
  // service path only; fused links never own a service event).
  bool service_event_pending_ = false;
  // Accepted-minus-dequeued mirror of queue_->length(), kept here so the
  // after-each-service "anything left?" test is a register compare instead
  // of a virtual dequeue that usually comes back empty.
  std::uint32_t queued_ = 0;
  // Virtual time the in-progress serialization completes; <= now() when the
  // wire is idle. Fused/express serves chain off this instead of an event.
  Time service_done_ = 0.0;

  Packet in_service_;       // owned by the pending service event
  Fifo<InFlight> pipe_;     // departed, still propagating
  std::pmr::vector<PacketTap> arrival_taps_;
  // chain_via: resolved express next hop per destination, so the per-packet
  // handoff is an array load, not a route walk plus dynamic_cast.
  std::pmr::vector<Link*> chain_cache_;
};

}  // namespace pdos
