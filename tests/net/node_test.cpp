#include "net/node.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/assert.hpp"

namespace pdos {
namespace {

class CollectingHandler : public PacketHandler {
 public:
  void handle(Packet pkt) override { packets.push_back(std::move(pkt)); }
  std::vector<Packet> packets;
};

Packet addressed(NodeId dst, FlowId flow = 0) {
  Packet pkt;
  pkt.dst = dst;
  pkt.flow = flow;
  pkt.size_bytes = 100;
  return pkt;
}

TEST(NodeTest, PeekRouteMirrorsForwardingWithoutTouchingPackets) {
  Node node(1);
  CollectingHandler hop;
  node.add_route(7, &hop);
  EXPECT_EQ(node.peek_route(7), &hop);
  EXPECT_EQ(node.peek_route(9), nullptr);  // beyond the table
  EXPECT_EQ(node.peek_route(0), nullptr);  // in-table gap
  EXPECT_EQ(node.peek_route(1), nullptr);  // self: not forwarded
  EXPECT_TRUE(hop.packets.empty());        // peek forwards nothing
}

TEST(NodeTest, ForwardsViaRouteTable) {
  Node node(1);
  CollectingHandler next_hop;
  node.add_route(7, &next_hop);
  node.handle(addressed(7));
  EXPECT_EQ(next_hop.packets.size(), 1u);
}

TEST(NodeTest, NoRouteIsAnInvariantViolation) {
  Node node(1);
  EXPECT_THROW(node.handle(addressed(9)), InvariantError);
}

TEST(NodeTest, UnmatchedLocalDeliveryIsSunkAndCounted) {
  // A self-addressed packet (attack traffic aimed at a router) is dropped:
  // not forwarded, even over a route to the node's own id, and no error.
  Node node(5);
  CollectingHandler hop;
  node.add_route(5, &hop);
  EXPECT_NO_THROW(node.handle(addressed(5, 42)));
  EXPECT_NO_THROW(node.handle(addressed(5, 42)));
  EXPECT_TRUE(hop.packets.empty());
}

TEST(NodeTest, NullRouteOrAgentRejected) {
  Node node(1);
  EXPECT_THROW(node.add_route(2, nullptr), ParameterError);
}

TEST(NodeTest, IdentityAccessors) {
  Node node(9);
  EXPECT_EQ(node.id(), 9);
}

}  // namespace
}  // namespace pdos
