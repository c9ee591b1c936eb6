// Background / cross-traffic sources.
//
// The paper's scenarios carry only bulk TCP plus the attack, but any
// deployment of the model needs to know how robust the gain curves are to
// unresponsive cross traffic. Two open-loop sources are provided:
//
//   CbrSource   — constant bit rate datagrams (e.g. media streams)
//   OnOffSource — exponential ON/OFF bursts of CBR traffic (aggregated
//                 web-like background), mean rate = rate * E[on]/(E[on]+E[off])
//
// Both emit PacketType::kUdp packets toward a sink node; they never react
// to loss.
#pragma once

#include <cstdint>

#include "net/packet.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace pdos {

/// Constant-bit-rate datagram source.
class CbrSource {
 public:
  CbrSource(Simulator& sim, BitRate rate, Bytes packet_bytes, NodeId self,
            NodeId sink, PacketHandler* out, FlowId flow = -2000);

  void start(Time when);
  void stop() { stopped_ = true; }

 private:
  void emit();

  Simulator& sim_;
  Time spacing_;
  Bytes packet_bytes_;
  NodeId self_;
  NodeId sink_;
  PacketHandler* out_;
  FlowId flow_;
  bool stopped_ = false;
  Timer emit_timer_;  // drives the fixed-spacing emission cycle
};

/// Exponential ON/OFF source: CBR at `peak_rate` during ON periods.
class OnOffSource {
 public:
  OnOffSource(Simulator& sim, BitRate peak_rate, Time mean_on, Time mean_off,
              Bytes packet_bytes, NodeId self, NodeId sink,
              PacketHandler* out, FlowId flow = -3000);

  void start(Time when);
  void stop() { stopped_ = true; }
  /// Long-run average rate peak * E[on]/(E[on]+E[off]).
  BitRate average_rate() const;

 private:
  void begin_on();
  void emit(Time on_end);

  Simulator& sim_;
  BitRate peak_rate_;
  Time mean_on_;
  Time mean_off_;
  Time spacing_;
  Bytes packet_bytes_;
  NodeId self_;
  NodeId sink_;
  PacketHandler* out_;
  FlowId flow_;
  Rng rng_;
  bool stopped_ = false;
  Timer burst_timer_;  // drives the ON/OFF cycle
};

}  // namespace pdos
