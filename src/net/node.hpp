// Network node with static routing.
//
// Topologies in this library are small and fixed (dumbbell, single
// bottleneck), so routing is a static next-hop table keyed by destination
// node. Node ids are assigned densely from 0 by the topology builder, so the
// table is a flat vector indexed by destination — the per-hop lookup every
// forwarded packet pays is an array load, not a hash probe. Packets
// addressed to the node itself (attack packets aimed at a router) end here.
#pragma once

#include <memory_resource>
#include <vector>

#include "net/packet.hpp"
#include "util/units.hpp"

namespace pdos {

class Node : public PacketHandler {
 public:
  /// The route table allocates from `memory` (default: the global heap;
  /// pass the Simulator's arena for warm-reuse scenarios).
  explicit Node(NodeId id, std::pmr::memory_resource* memory =
                               std::pmr::get_default_resource())
      : id_(id), routes_(memory) {}

  NodeId id() const { return id_; }

  /// Install `via` as the next hop toward `dst`.
  void add_route(NodeId dst, PacketHandler* via);

  /// The hop handle() would forward a packet for `dst` to, without touching
  /// the packet: the route, else null — and null for the node itself (a
  /// self-addressed packet is not forwarded). Express chain handoff
  /// (Link::chain_via, DESIGN.md §11) uses this to skip the router's
  /// delivery event when the next hop is another express lane.
  PacketHandler* peek_route(NodeId dst) const {
    if (dst == id_) return nullptr;
    return dst >= 0 && static_cast<std::size_t>(dst) < routes_.size()
               ? routes_[static_cast<std::size_t>(dst)]
               : nullptr;
  }

  /// Drop a self-addressed packet; forward any other by the route table.
  /// A destination with no route is an InvariantError.
  void handle(Packet pkt) override;

 private:
  NodeId id_;
  // Dense next-hop table: routes_[dst] is null for destinations with no
  // route.
  std::pmr::vector<PacketHandler*> routes_;
};

}  // namespace pdos
