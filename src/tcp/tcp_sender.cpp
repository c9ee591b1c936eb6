#include "tcp/tcp_sender.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace pdos {

namespace {
constexpr double kMinCwnd = 1.0;
constexpr double kMinSsthresh = 2.0;
}  // namespace

const char* tcp_variant_name(TcpVariant variant) {
  switch (variant) {
    case TcpVariant::kTahoe:
      return "Tahoe";
    case TcpVariant::kReno:
      return "Reno";
    case TcpVariant::kNewReno:
      return "NewReno";
  }
  return "?";
}

void TcpSenderConfig::validate() const {
  aimd.validate();
  PDOS_REQUIRE(rto_jitter >= 0.0, "TcpSender: rto_jitter must be >= 0");
  PDOS_REQUIRE(mss > 0, "TcpSender: mss must be > 0");
  PDOS_REQUIRE(initial_cwnd >= 1.0, "TcpSender: initial_cwnd must be >= 1");
  PDOS_REQUIRE(max_cwnd >= initial_cwnd,
               "TcpSender: max_cwnd must be >= initial_cwnd");
  PDOS_REQUIRE(rto_min > 0.0 && rto_min <= kRtoMax,
               "TcpSender: need 0 < rto_min <= 64 s");
}

TcpSender::TcpSender(Simulator& sim, FlowId flow, NodeId self, NodeId peer,
                     PacketHandler* out, TcpSenderConfig config,
                     TcpSenderHot* hot)
    : sim_(sim),
      flow_(flow),
      self_(self),
      peer_(peer),
      out_(out),
      config_(config),
      hot_(hot != nullptr ? hot : &fallback_hot_) {
  PDOS_REQUIRE(out != nullptr, "TcpSender: out handler must be non-null");
  config_.validate();
  *hot_ = TcpSenderHot{};
  hot_->cwnd = config_.initial_cwnd;
  hot_->ssthresh = config_.initial_ssthresh;
  hot_->rto = config_.initial_rto;
}

TcpSender::~TcpSender() { disarm_rto(); }

void TcpSender::start(Time when) {
  PDOS_CHECK_MSG(!hot_->started, "TcpSender started twice");
  hot_->started = true;
  sim_.schedule_at(when, [this] { send_available(); });
}

std::int64_t TcpSender::window() const {
  const double w = std::min(hot_->cwnd, config_.max_cwnd);
  return std::max<std::int64_t>(1, static_cast<std::int64_t>(std::floor(w)));
}

void TcpSender::handle(Packet pkt) {
  PDOS_CHECK(pkt.type == PacketType::kTcpAck);
  if (pkt.ack > hot_->snd_una) {
    ++stats_.acks_received;
    on_new_ack(pkt);
  } else if (in_flight() > 0) {
    ++stats_.acks_received;
    ++stats_.dupacks_received;
    on_dup_ack();
  }
  send_available();
}

void TcpSender::on_new_ack(const Packet& pkt) {
  const std::int64_t newly_acked = pkt.ack - hot_->snd_una;
  hot_->snd_una = pkt.ack;
  sample_rtt(pkt);
  hot_->backoff = 1;  // forward progress clears exponential backoff

  if (hot_->in_fast_recovery) {
    // Reno deflates on the first new ACK regardless; NewReno stays in
    // recovery until the loss-time window is fully acknowledged (RFC 3782).
    if (config_.variant == TcpVariant::kReno ||
        hot_->snd_una > hot_->recover) {
      exit_fast_recovery();
    } else {
      on_partial_ack(newly_acked);
      arm_rto();
      return;
    }
  } else {
    hot_->dupack_count = 0;
  }

  // Window growth: one increase step per new ACK. Delayed ACKs (one ACK per
  // d segments) then yield the paper's a/d MSS-per-RTT growth automatically.
  open_window_per_ack();

  if (in_flight() > 0) {
    arm_rto();
  } else {
    disarm_rto();
  }
}

void TcpSender::open_window_per_ack() {
  if (hot_->cwnd < hot_->ssthresh) {
    hot_->cwnd = std::min(hot_->cwnd + 1.0, config_.max_cwnd);  // slow start
  } else {
    hot_->cwnd =
        std::min(hot_->cwnd + config_.aimd.a / hot_->cwnd, config_.max_cwnd);
  }
  trace_cwnd();
}

void TcpSender::on_dup_ack() {
  ++hot_->dupack_count;
  if (hot_->in_fast_recovery) {
    // Window inflation: each dupack signals a departed segment.
    hot_->cwnd = std::min(hot_->cwnd + 1.0, config_.max_cwnd);
    trace_cwnd();
    return;
  }
  if (hot_->dupack_count == TcpSenderConfig::kDupackThreshold) {
    enter_fast_recovery();
  }
}

void TcpSender::enter_fast_recovery() {
  ++stats_.fast_recoveries;
  // Multiplicative decrease of the general AIMD(a, b): W -> b * W.
  hot_->ssthresh = std::max(kMinSsthresh, config_.aimd.b * hot_->cwnd);
  if (config_.variant == TcpVariant::kTahoe) {
    // Tahoe has no fast recovery: retransmit and slow-start from one
    // segment.
    hot_->cwnd = kMinCwnd;
    hot_->dupack_count = 0;
    trace_cwnd();
    emit_segment(hot_->snd_una, /*retransmit=*/true);
    arm_rto();
    return;
  }
  hot_->in_fast_recovery = true;
  hot_->recover = hot_->next_seq - 1;
  hot_->cwnd =
      hot_->ssthresh + static_cast<double>(TcpSenderConfig::kDupackThreshold);
  trace_cwnd();
  emit_segment(hot_->snd_una, /*retransmit=*/true);
  arm_rto();
}

void TcpSender::on_partial_ack(std::int64_t newly_acked) {
  // RFC 3782: retransmit the next hole, deflate the window by the amount of
  // new data acknowledged, then add back one segment.
  emit_segment(hot_->snd_una, /*retransmit=*/true);
  hot_->cwnd = std::max(kMinCwnd,
                        hot_->cwnd - static_cast<double>(newly_acked) + 1.0);
  trace_cwnd();
}

void TcpSender::exit_fast_recovery() {
  hot_->in_fast_recovery = false;
  hot_->dupack_count = 0;
  hot_->cwnd = std::max(kMinCwnd, hot_->ssthresh);  // deflate to ssthresh
  trace_cwnd();
}

void TcpSender::on_timeout() {
  if (in_flight() <= 0) return;  // stale timer
  ++stats_.timeouts;
  // Loss of the whole window is assumed: shrink, slow-start from snd_una,
  // and resume go-back-N, as ns-2's TcpAgent does after a timeout.
  hot_->ssthresh = std::max(kMinSsthresh, config_.aimd.b * hot_->cwnd);
  hot_->cwnd = kMinCwnd;
  trace_cwnd();
  hot_->in_fast_recovery = false;
  hot_->dupack_count = 0;
  hot_->next_seq = hot_->snd_una;
  hot_->backoff = std::min(hot_->backoff * 2, 64);
  emit_segment(hot_->snd_una, /*retransmit=*/true);
  hot_->next_seq = hot_->snd_una + 1;
  arm_rto();
}

void TcpSender::send_available() {
  if (!hot_->started) return;
  const std::int64_t limit = hot_->snd_una + window();
  while (hot_->next_seq < limit) {
    emit_segment(hot_->next_seq, /*retransmit=*/false);
    ++hot_->next_seq;
  }
  if (in_flight() > 0 && hot_->rto_event == kInvalidEventId) arm_rto();
}

void TcpSender::emit_segment(std::int64_t seq, bool retransmit) {
  Packet pkt;
  pkt.type = PacketType::kTcpData;
  pkt.flow = flow_;
  pkt.src = self_;
  pkt.dst = peer_;
  pkt.size_bytes = config_.mss + TcpSenderConfig::kHeaderBytes;
  pkt.seq = seq;
  pkt.ts_echo = sim_.now();
  pkt.retransmit = retransmit;
  ++stats_.segments_sent;
  if (retransmit) ++stats_.retransmits;
  out_->handle(std::move(pkt));
}

void TcpSender::arm_rto() {
  Time timeout = std::min(hot_->rto * static_cast<double>(hot_->backoff),
                          TcpSenderConfig::kRtoMax);
  if (config_.rto_jitter > 0.0) {
    // Randomized-RTO defense [7]: the effective minimum moves per timer,
    // so a shrew attacker cannot phase-lock pulses to retransmissions.
    const Time jittered_min =
        config_.rto_min + sim_.rng().uniform(0.0, config_.rto_jitter);
    timeout = std::max(timeout, jittered_min);
  }
  // Restart in place: every data segment re-arms this timer, so reusing the
  // heap slot (not cancel + fresh insert) is the engine's hottest win. The
  // id lives on the hot line (Timer's logic inlined); the armed closure
  // marks the slot idle before firing so on_timeout() may re-arm.
  const Time when = sim_.now() + timeout;
  Scheduler& sched = sim_.scheduler();
  if (hot_->rto_event != kInvalidEventId &&
      sched.reschedule_at(hot_->rto_event, when)) {
    return;
  }
  hot_->rto_event = sched.schedule_at(when, [this] {
    hot_->rto_event = kInvalidEventId;
    on_timeout();
  });
}

void TcpSender::disarm_rto() {
  if (hot_->rto_event == kInvalidEventId) return;
  sim_.scheduler().cancel(hot_->rto_event);
  hot_->rto_event = kInvalidEventId;
}

void TcpSender::sample_rtt(const Packet& pkt) {
  // Timestamp echo makes the sample valid even across retransmissions
  // (the receiver echoes the timestamp of the segment that drove the ACK).
  if (pkt.ts_echo <= 0.0) return;
  const Time r = sim_.now() - pkt.ts_echo;
  if (r < 0.0) return;
  if (!hot_->have_rtt_sample) {
    hot_->srtt = r;
    hot_->rttvar = r / 2.0;
    hot_->have_rtt_sample = true;
  } else {
    hot_->rttvar = 0.75 * hot_->rttvar + 0.25 * std::abs(hot_->srtt - r);
    hot_->srtt = 0.875 * hot_->srtt + 0.125 * r;
  }
  hot_->rto = std::clamp(hot_->srtt + std::max(4.0 * hot_->rttvar, ms(10)),
                         config_.rto_min, TcpSenderConfig::kRtoMax);
}

void TcpSender::trace_cwnd() {
  if (cwnd_tracer_) cwnd_tracer_(sim_.now(), hot_->cwnd);
}

}  // namespace pdos
