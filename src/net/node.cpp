#include "net/node.hpp"

#include <string>

#include "util/assert.hpp"

namespace pdos {

void Node::add_route(NodeId dst, PacketHandler* via) {
  PDOS_REQUIRE(via != nullptr, "Node::add_route: next hop must be non-null");
  PDOS_REQUIRE(dst >= 0, "Node::add_route: destination must be >= 0");
  if (static_cast<std::size_t>(dst) >= routes_.size()) {
    routes_.resize(static_cast<std::size_t>(dst) + 1, nullptr);
  }
  routes_[static_cast<std::size_t>(dst)] = via;
}

void Node::handle(Packet pkt) {
  if (pkt.dst == id_) return;  // aimed at this node: nothing to deliver to
  PacketHandler* via = peek_route(pkt.dst);
  PDOS_CHECK_MSG(via != nullptr, "node " + std::to_string(id_) +
                                     " has no route for destination");
  via->handle(std::move(pkt));
}

}  // namespace pdos
