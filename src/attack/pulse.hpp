// PDoS pulse-train attacker.
//
// Implements the paper's attack process A(T_extent, R_attack, T_space, N):
// N pulses, each emitting packets back-to-back at rate R_attack for
// T_extent seconds, separated by T_space seconds of silence. T_space = 0
// degenerates into the traditional flooding attack; pacing the period to
// minRTO/n yields the shrew (timeout-based) attack. Attack packets are
// UDP-like: no feedback, addressed to a sink behind the bottleneck.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>

#include "net/packet.hpp"
#include "sim/simulator.hpp"
#include "util/fifo.hpp"
#include "util/units.hpp"

namespace pdos {

struct PulseTrain {
  Time textent = ms(50);        // pulse width, seconds (> 0)
  BitRate rattack = mbps(25);   // in-pulse sending rate, bps (> 0)
  Time tspace = ms(1950);       // inter-pulse gap, seconds (>= 0)
  std::int64_t n = std::numeric_limits<std::int64_t>::max();  // pulse count
  Bytes packet_bytes = 1040;    // wire size of each attack packet

  /// Attack period T_AIMD = T_space + T_extent.
  Time period() const { return tspace + textent; }

  /// Duty-cycle reciprocal μ = T_space / T_extent.
  double mu() const { return tspace / textent; }

  /// Long-run average rate R_attack * T_extent / T_AIMD, in bps.
  BitRate average_rate() const { return rattack * textent / period(); }

  /// Normalized average attack rate γ (Eq. 4) for a bottleneck of
  /// `rbottle` bps.
  double gamma(BitRate rbottle) const { return average_rate() / rbottle; }

  /// Construct the train the paper parameterizes by (T_extent, R_attack, γ):
  /// γ fixes the period via Eq. (4), hence T_space.
  static PulseTrain from_gamma(Time textent, BitRate rattack, double gamma,
                               BitRate rbottle, Bytes packet_bytes = 1040);

  /// Flooding baseline: continuous transmission at `rate`.
  static PulseTrain flooding(BitRate rate, Bytes packet_bytes = 1040);

  void validate() const;
};

struct AttackerStats {
  std::int64_t pulses_started = 0;
  std::int64_t packets_sent = 0;
};

/// An attacker's access hop, which never congests (`rate` is at least twice
/// the pulse rate): on the fast path the attacker walks it itself instead of
/// a link (DESIGN.md §11), FIFO serialization at `rate`, then `delay`.
struct AccessHop {
  BitRate rate = 0.0;  // > 0
  Time delay = 0.0;    // >= 0
};

/// Emits the pulse train into `out`, one packet per event (DESIGN.md §8).
/// Without `hop` (full path) `out` is the access link, reached by packet j
/// of a pulse at its send time `burst_start + j * spacing`. With `hop` (fast
/// path) `out` is the link behind the hop, reached at the instant an express
/// lane of the hop's rate and delay would deliver the packet.
class PulseAttacker {
 public:
  PulseAttacker(Simulator& sim, PulseTrain train, NodeId self, NodeId sink,
                PacketHandler* out, FlowId flow = -1000,
                std::optional<AccessHop> hop = std::nullopt);

  /// Begin the first pulse at absolute virtual time `when`.
  void start(Time when);

  /// Stop after the current pulse; no further pulses are scheduled.
  void stop() { stopped_ = true; }

  const PulseTrain& train() const { return train_; }
  const AttackerStats& stats() const { return stats_; }

 private:
  // A fired pulse: its send origin and the tie-break rank of its packet 0.
  struct Burst {
    Time start = 0.0;
    std::uint32_t seq = 0;
  };

  void fire_pulse();
  void walk_next_burst();
  void schedule_packet();
  void emit_packet();

  Simulator& sim_;
  PulseTrain train_;
  NodeId self_;
  NodeId sink_;
  PacketHandler* out_;
  FlowId flow_;
  std::optional<AccessHop> hop_;
  Time hop_tx_ = 0.0;     // one attack packet's serialization on the hop
  Time lane_free_ = 0.0;  // when the hop's wire is next free, across pulses
  Time packet_spacing_;
  std::int64_t packets_per_pulse_;
  bool stopped_ = false;
  Timer pulse_timer_;  // drives the periodic pulse cycle
  // Emission chain: one pending event walks the burst, whose tie-break
  // ranks are claimed when the pulse fires, so each packet keeps the rank
  // an eager schedule would have given it.
  Burst burst_;                  // the pulse the chain is walking
  std::int64_t burst_next_ = 0;  // its packets handed on; all = idle
  // Fired pulses the chain has not reached yet. One waits behind another
  // only on the fast path, when T_space is shorter than the access hop.
  Fifo<Burst> waiting_;
  AttackerStats stats_;
};

}  // namespace pdos
