#include "attack/pulse.hpp"

#include <algorithm>
#include <cmath>

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
                             NodeId sink, PacketHandler* out, FlowId flow,
                             std::optional<AccessHop> hop)
    : sim_(sim),
      train_(train),
      self_(self),
      sink_(sink),
      out_(out),
      flow_(flow),
      hop_(hop),
      pulse_timer_(sim.scheduler(), [this] { fire_pulse(); }),
      waiting_(sim.memory()) {
  PDOS_REQUIRE(out != nullptr, "PulseAttacker: out must be non-null");
  train_.validate();
  if (hop_) {
    PDOS_REQUIRE(hop_->rate > 0.0 && hop_->delay >= 0.0,
                 "PulseAttacker: access hop needs rate > 0 and delay >= 0");
    hop_tx_ = transmission_time(train_.packet_bytes, hop_->rate);
  }
  packet_spacing_ = transmission_time(train_.packet_bytes, train_.rattack);
  // Emit packets whose spacing fits fully inside the pulse window, at least
  // one per pulse.
  packets_per_pulse_ = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(std::floor(train_.textent /
                                              packet_spacing_)));
  burst_next_ = packets_per_pulse_;
}

void PulseAttacker::start(Time when) { pulse_timer_.schedule_at(when); }

void PulseAttacker::fire_pulse() {
  if (stopped_ || stats_.pulses_started >= train_.n) return;
  ++stats_.pulses_started;
  // The fast path counts a pulse whole when it fires, so a pulse that the
  // horizon cuts short is over-counted against `full`, which counts each
  // packet as the chain hands it on (DESIGN.md §11).
  if (hop_) stats_.packets_sent += packets_per_pulse_;
  // Claiming the burst's rank range here keeps same-timestamp ordering
  // identical to scheduling every packet eagerly. A fired burst always runs
  // to completion (stop() only suppresses future pulses), exactly as the
  // eagerly scheduled events would have.
  const auto ranks = static_cast<std::uint32_t>(packets_per_pulse_);
  waiting_.push_back(
      Burst{sim_.now(), sim_.scheduler().allocate_seq_range(ranks)});
  if (burst_next_ == packets_per_pulse_) walk_next_burst();
  if (stats_.pulses_started < train_.n) {
    pulse_timer_.schedule_in(train_.period());
  }
}

void PulseAttacker::walk_next_burst() {
  burst_ = waiting_.pop_front();
  burst_next_ = 0;
  schedule_packet();
}

void PulseAttacker::schedule_packet() {
  // Send times are computed from the burst origin, not accumulated, so the
  // chain reproduces the eager schedule's timestamps bit for bit.
  Time at = burst_.start + static_cast<double>(burst_next_) * packet_spacing_;
  if (hop_) {
    // The express lane's serialization and propagation (Link::inject_at,
    // Link::emit) step for step, FIFO behind the previous packet, whose
    // pulse may be an earlier one.
    lane_free_ = std::max(at, lane_free_) + hop_tx_;
    at = lane_free_ + hop_->delay;
  }
  sim_.scheduler().schedule_at_sequenced(
      at, burst_.seq + static_cast<std::uint32_t>(burst_next_),
      [this] { emit_packet(); });
}

void PulseAttacker::emit_packet() {
  if (!hop_) ++stats_.packets_sent;
  Packet pkt;
  pkt.type = PacketType::kAttack;
  pkt.flow = flow_;
  pkt.src = self_;
  pkt.dst = sink_;
  pkt.size_bytes = train_.packet_bytes;
  // The successor is scheduled before this packet is handed on, as a link
  // re-arms its delivery event before it delivers.
  if (++burst_next_ < packets_per_pulse_) {
    schedule_packet();
  } else if (!waiting_.empty()) {
    walk_next_burst();
  }
  out_->handle(std::move(pkt));
}

}  // namespace pdos
