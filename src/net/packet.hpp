// Packet representation.
//
// Like ns-2, TCP is packet-counting: sequence and ACK numbers count MSS-sized
// segments, not bytes. Wire size still carries real byte counts so link
// serialization and rate accounting are exact.
//
// Layout matters: a simulated packet is copied through queue FIFOs, the
// link's in-service slot, and the propagation pipe several times per hop,
// so the struct is packed to 40 bytes (five eighths of a cache line, down
// from 64) — the double first, then the 32-bit lane, then the byte-wide
// flags.
// Segment counters are 32-bit on the wire: the packet-counting model tops
// out at cwnd * simulated-seconds / RTT segments per flow, orders of
// magnitude below 2^31 for any horizon this library runs, while the TCP
// agents keep 64-bit internal counters so arithmetic like `ack - snd_una`
// never narrows.
#pragma once

#include <cstdint>

#include "util/units.hpp"

namespace pdos {

enum class PacketType : std::uint8_t {
  kTcpData,  // TCP segment carrying payload
  kTcpAck,   // pure acknowledgment
  kAttack,   // PDoS / flooding attack packet (UDP-like, no feedback)
  kUdp,      // generic background datagram
};

/// Node address within a topology. Assigned densely from 0 by the topology
/// builder.
using NodeId = std::int32_t;

/// Connection/flow identifier; doubles as the demux "port" at end hosts.
using FlowId = std::int32_t;

/// On-wire segment counter (see the layout note above).
using SeqNum = std::int32_t;

inline constexpr NodeId kInvalidNode = -1;

struct Packet {
  // --- 64-bit lane ---
  Time ts_echo = 0.0;  // sender timestamp echoed by the receiver (RTTM)

  // --- 32-bit lane ---
  SeqNum seq = 0;  // data: segment index; ack: echoed highest seq
  SeqNum ack = 0;  // cumulative: all segments < ack received
  FlowId flow = -1;
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  std::uint32_t size_bytes = 0;  // wire size including headers

  // --- flags ---
  PacketType type = PacketType::kTcpData;
  bool retransmit = false;  // marks retransmitted segments (Karn's rule)

  bool is_attack() const { return type == PacketType::kAttack; }
  bool is_tcp() const {
    return type == PacketType::kTcpData || type == PacketType::kTcpAck;
  }
};

static_assert(sizeof(Packet) == 40,
              "Packet is copied per hop through FIFOs and service slots — "
              "keep it packed (see layout note)");
static_assert(alignof(Packet) == 8, "Packet should align to its Time lane");

/// Anything that can accept a packet: links, nodes, agents, sinks, taps.
class PacketHandler {
 public:
  virtual ~PacketHandler() = default;
  virtual void handle(Packet pkt) = 0;
};

}  // namespace pdos
