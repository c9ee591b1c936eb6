#include "attack/pulse.hpp"

#include <cmath>

#include "net/link.hpp"
#include "util/assert.hpp"

namespace pdos {

void PulseTrain::validate() const {
  PDOS_REQUIRE(textent > 0.0, "PulseTrain: textent must be > 0");
  PDOS_REQUIRE(rattack > 0.0, "PulseTrain: rattack must be > 0");
  PDOS_REQUIRE(tspace >= 0.0, "PulseTrain: tspace must be >= 0");
  PDOS_REQUIRE(n >= 1, "PulseTrain: n must be >= 1");
  PDOS_REQUIRE(packet_bytes > 0, "PulseTrain: packet_bytes must be > 0");
}

PulseTrain PulseTrain::from_gamma(Time textent, BitRate rattack, double gamma,
                                  BitRate rbottle, Bytes packet_bytes) {
  PDOS_REQUIRE(gamma > 0.0 && gamma <= 1.0,
               "PulseTrain::from_gamma: gamma must be in (0, 1]");
  PDOS_REQUIRE(rbottle > 0.0, "PulseTrain::from_gamma: rbottle must be > 0");
  // Eq. (4): gamma = rattack * textent / (rbottle * period).
  const Time period = rattack * textent / (rbottle * gamma);
  PDOS_REQUIRE(period >= textent,
               "PulseTrain::from_gamma: gamma implies tspace < 0 "
               "(rattack/rbottle < gamma)");
  PulseTrain train;
  train.textent = textent;
  train.rattack = rattack;
  train.tspace = period - textent;
  train.packet_bytes = packet_bytes;
  return train;
}

PulseTrain PulseTrain::flooding(BitRate rate, Bytes packet_bytes) {
  PulseTrain train;
  train.textent = sec(1.0);  // arbitrary slice; back-to-back pulses
  train.rattack = rate;
  train.tspace = 0.0;
  train.packet_bytes = packet_bytes;
  return train;
}

PulseAttacker::PulseAttacker(Simulator& sim, PulseTrain train, NodeId self,
                             NodeId sink, PacketHandler* out, FlowId flow)
    : sim_(sim),
      train_(train),
      self_(self),
      sink_(sink),
      out_(out),
      flow_(flow),
      pulse_timer_(sim.scheduler(), [this] { fire_pulse(); }) {
  PDOS_REQUIRE(out != nullptr, "PulseAttacker: out must be non-null");
  train_.validate();
  packet_spacing_ = transmission_time(train_.packet_bytes, train_.rattack);
  // Emit packets whose spacing fits fully inside the pulse window, at least
  // one per pulse.
  packets_per_pulse_ = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(std::floor(train_.textent /
                                              packet_spacing_)));
}

void PulseAttacker::start(Time when) { pulse_timer_.schedule_at(when); }

void PulseAttacker::set_express_lane(Link* lane) {
  PDOS_REQUIRE(lane != nullptr && lane->express(),
               "PulseAttacker: burst lane must be an express link");
  express_lane_ = lane;
}

void PulseAttacker::fire_pulse() {
  if (stopped_ || stats_.pulses_started >= train_.n) return;
  ++stats_.pulses_started;
  // Emissions within the pulse chain through one pending event: each one
  // schedules its successor, so a burst occupies a single heap entry
  // instead of ballooning the event queue by packets_per_pulse_. Claiming
  // the burst's rank range here keeps same-timestamp ordering identical to
  // scheduling every emission eagerly; a started burst always runs to
  // completion (stop() only suppresses future pulses), exactly as the
  // eagerly scheduled events would have.
  burst_start_ = sim_.now();
  if (express_lane_ != nullptr) {
    // Batched fast path: the whole burst is injected now, each packet at
    // its analytic send time. The lane serializes them exactly as the
    // event-driven emissions would (it is never busy when a packet lands —
    // its rate is at least twice R_attack), so only the event count and
    // tie ranks change, never a packet timing. A fired burst runs to
    // completion either way, so stop() semantics are unchanged.
    for (std::int64_t j = 0; j < packets_per_pulse_; ++j) {
      express_lane_->inject_at(
          make_attack_packet(),
          burst_start_ + static_cast<double>(j) * packet_spacing_);
    }
  } else {
    burst_seq_ = sim_.scheduler().allocate_seq_range(
        static_cast<std::uint32_t>(packets_per_pulse_));
    burst_next_ = 0;
    sim_.scheduler().schedule_at_sequenced(burst_start_, burst_seq_,
                                           [this] { emit_packet(); });
  }
  if (stats_.pulses_started < train_.n) {
    pulse_timer_.schedule_in(train_.period());
  }
}

Packet PulseAttacker::make_attack_packet() {
  Packet pkt;
  pkt.type = PacketType::kAttack;
  pkt.flow = flow_;
  pkt.src = self_;
  pkt.dst = sink_;
  pkt.size_bytes = train_.packet_bytes;
  ++stats_.packets_sent;
  stats_.bytes_sent += pkt.size_bytes;
  return pkt;
}

void PulseAttacker::emit_packet() {
  Packet pkt = make_attack_packet();
  if (++burst_next_ < packets_per_pulse_) {
    // Emission times are computed from the burst origin, not accumulated,
    // so the chain reproduces the eager schedule's timestamps bit-for-bit.
    sim_.scheduler().schedule_at_sequenced(
        burst_start_ + static_cast<double>(burst_next_) * packet_spacing_,
        burst_seq_ + static_cast<std::uint32_t>(burst_next_),
        [this] { emit_packet(); });
  }
  out_->handle(std::move(pkt));
}

}  // namespace pdos
