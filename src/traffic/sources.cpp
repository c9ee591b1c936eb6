#include "traffic/sources.hpp"

#include "util/assert.hpp"

namespace pdos {

namespace {

Packet make_udp(FlowId flow, NodeId self, NodeId sink, Bytes size) {
  Packet pkt;
  pkt.type = PacketType::kUdp;
  pkt.flow = flow;
  pkt.src = self;
  pkt.dst = sink;
  pkt.size_bytes = size;
  return pkt;
}

}  // namespace

CbrSource::CbrSource(Simulator& sim, BitRate rate, Bytes packet_bytes,
                     NodeId self, NodeId sink, PacketHandler* out,
                     FlowId flow)
    : sim_(sim),
      spacing_(transmission_time(packet_bytes, rate)),
      packet_bytes_(packet_bytes),
      self_(self),
      sink_(sink),
      out_(out),
      flow_(flow),
      emit_timer_(sim.scheduler(), [this] { emit(); }) {
  PDOS_REQUIRE(rate > 0.0, "CbrSource: rate must be > 0");
  PDOS_REQUIRE(packet_bytes > 0, "CbrSource: packet_bytes must be > 0");
  PDOS_REQUIRE(out != nullptr, "CbrSource: out must be non-null");
}

void CbrSource::start(Time when) { emit_timer_.schedule_at(when); }

void CbrSource::emit() {
  if (stopped_) return;
  out_->handle(make_udp(flow_, self_, sink_, packet_bytes_));
  emit_timer_.schedule_in(spacing_);
}

OnOffSource::OnOffSource(Simulator& sim, BitRate peak_rate, Time mean_on,
                         Time mean_off, Bytes packet_bytes, NodeId self,
                         NodeId sink, PacketHandler* out, FlowId flow)
    : sim_(sim),
      peak_rate_(peak_rate),
      mean_on_(mean_on),
      mean_off_(mean_off),
      spacing_(transmission_time(packet_bytes, peak_rate)),
      packet_bytes_(packet_bytes),
      self_(self),
      sink_(sink),
      out_(out),
      flow_(flow),
      // Seed-derived stream keyed by the source's node id: the burst
      // pattern is a function of (run seed, self) only, not of how many
      // components forked the root stream before this one.
      rng_(sim.stream(0x6f6e6f66'66000000ULL +
                      static_cast<std::uint64_t>(self))),
      burst_timer_(sim.scheduler(), [this] { begin_on(); }) {
  PDOS_REQUIRE(peak_rate > 0.0, "OnOffSource: peak_rate must be > 0");
  PDOS_REQUIRE(mean_on > 0.0 && mean_off > 0.0,
               "OnOffSource: mean_on/mean_off must be > 0");
  PDOS_REQUIRE(packet_bytes > 0, "OnOffSource: packet_bytes must be > 0");
  PDOS_REQUIRE(out != nullptr, "OnOffSource: out must be non-null");
}

BitRate OnOffSource::average_rate() const {
  return peak_rate_ * mean_on_ / (mean_on_ + mean_off_);
}

void OnOffSource::start(Time when) { burst_timer_.schedule_at(when); }

void OnOffSource::begin_on() {
  if (stopped_) return;
  const Time on_duration = rng_.exponential(mean_on_);
  const Time on_end = sim_.now() + on_duration;
  emit(on_end);
  const Time off_duration = rng_.exponential(mean_off_);
  burst_timer_.schedule_in(on_duration + off_duration);
}

// The emission chain stays on plain per-event schedules: a burst's trailing
// event can still be pending when the next burst begins (short OFF period),
// and the captured `on_end` is what makes that stale event die instead of
// adopting the new burst's deadline.
void OnOffSource::emit(Time on_end) {
  if (stopped_ || sim_.now() >= on_end) return;
  out_->handle(make_udp(flow_, self_, sink_, packet_bytes_));
  sim_.schedule(spacing_, [this, on_end] { emit(on_end); });
}

}  // namespace pdos
