// Convenience wiring of a TCP sender/receiver pair onto two nodes.
#pragma once

#include "net/node.hpp"
#include "sim/simulator.hpp"
#include "tcp/tcp_receiver.hpp"
#include "tcp/tcp_sender.hpp"

namespace pdos {

/// A fully wired one-way bulk TCP connection. Pointers are owned by the
/// Simulator's component arena.
struct TcpConnection {
  FlowId flow = -1;
  TcpSender* sender = nullptr;
  TcpReceiver* receiver = nullptr;
};

/// Create a bulk TCP connection from `src` to `dst`. The sender/receiver are
/// attached to their nodes under `flow` and route packets via the nodes'
/// forwarding tables. The receiver's delayed-ACK factor is taken from the
/// sender's AIMD `d` so that model and simulation agree. `sender_hot` /
/// `receiver_hot`, when non-null, are externally owned hot-state slots (flat
/// per-class arrays built by the scenario; see tcp/flow_state.hpp).
/// `sender_out` / `receiver_out`, when non-null, replace the node as the
/// agent's egress — the dumbbell builder passes the flow's access link
/// so emissions skip the node's route dispatch (a pure call-path shortcut;
/// packets, timings, and events are unchanged).
TcpConnection make_tcp_connection(Simulator& sim, Node& src, Node& dst,
                                  FlowId flow,
                                  TcpSenderConfig sender_config = {},
                                  TcpSenderHot* sender_hot = nullptr,
                                  TcpReceiverHot* receiver_hot = nullptr,
                                  PacketHandler* sender_out = nullptr,
                                  PacketHandler* receiver_out = nullptr);

}  // namespace pdos
