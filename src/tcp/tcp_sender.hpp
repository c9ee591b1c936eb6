// TCP NewReno sender with generalized AIMD(a, b) congestion control.
//
// Packet-counting semantics as in ns-2: seq/ack numbers index MSS-sized
// segments. The sender models a bulk application with unlimited data (the
// paper's Iperf/FTP victims). Implemented behaviours:
//   - slow start / congestion avoidance with AIMD(a, b) increase/decrease
//   - fast retransmit on 3 duplicate ACKs, NewReno fast recovery with
//     partial-ACK retransmission and window deflation (RFC 3782)
//   - retransmission timeout per RFC 6298 (Karn's rule via timestamp echo,
//     exponential backoff, configurable RTO_min — 1 s for the ns-2 scenario,
//     200 ms for the Linux test-bed scenario)
//   - go-back-N resumption after a timeout, as ns-2's TcpAgent does
//
// Layout: all per-ACK mutable state lives in a `TcpSenderHot` slot (see
// tcp/flow_state.hpp). Scenario builders pass a slot from a flat per-class
// array so N flows' hot state is contiguous; standalone construction falls
// back to the embedded slot with identical behaviour.
#pragma once

#include <cstdint>
#include <string>

#include "net/packet.hpp"
#include "sim/simulator.hpp"
#include "tcp/aimd.hpp"
#include "tcp/flow_state.hpp"
#include "util/units.hpp"

namespace pdos {

/// cwnd-change observer: an inline-storage `void(Time, double)` callable.
/// Captures must fit kInlineFnCapacity (32 bytes) — a sink pointer or two;
/// oversized captures are a compile error, so tracing cannot reintroduce a
/// heap-held std::function on the per-ACK path.
using CwndTracer = BasicInlineFn<kInlineFnCapacity, Time, double>;

/// Loss-recovery flavour. All three share the AIMD core; they differ in
/// what happens at and after the third duplicate ACK:
///   Tahoe   — retransmit, then slow-start from cwnd = 1 (no fast recovery)
///   Reno    — fast recovery, exits on the FIRST new ACK (multiple losses
///             in one window usually force a timeout)
///   NewReno — fast recovery with partial-ACK retransmission (RFC 3782)
enum class TcpVariant { kTahoe, kReno, kNewReno };

const char* tcp_variant_name(TcpVariant variant);

struct TcpSenderConfig {
  /// TCP/IP header overhead on every segment and pure ACK.
  static constexpr Bytes kHeaderBytes = 40;
  /// Ceiling of the backed-off retransmission timeout.
  static constexpr Time kRtoMax = sec(64.0);
  /// Duplicate ACKs that trigger fast retransmit.
  static constexpr int kDupackThreshold = 3;

  TcpVariant variant = TcpVariant::kNewReno;
  AimdParams aimd = AimdParams::new_reno();
  Bytes mss = 1000;          // payload bytes per segment
  double initial_cwnd = 1.0;   // segments
  double initial_ssthresh = 64.0;  // segments
  double max_cwnd = 10000.0;   // receiver-window stand-in, segments
  Time rto_min = sec(1.0);     // ns-2 default; Linux test-bed uses 200 ms
  Time initial_rto = sec(3.0);  // RFC 6298 before the first RTT sample
  /// Randomized-RTO defense (Yang, Gerla & Sanadidi [7]): each timeout's
  /// minimum is drawn uniformly from [rto_min, rto_min + rto_jitter]. The
  /// paper notes this breaks the shrew attack's timing but not the
  /// AIMD-based attack, whose damage does not depend on RTO values.
  Time rto_jitter = 0.0;

  void validate() const;
};

struct TcpSenderStats {
  std::uint64_t segments_sent = 0;        // includes retransmissions
  std::uint64_t retransmits = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t fast_recoveries = 0;
  std::uint64_t acks_received = 0;
  std::uint64_t dupacks_received = 0;
};

class TcpSender : public PacketHandler {
 public:
  /// Data segments leave via `out` (typically the sender's access link or
  /// node); ACKs arrive via handle(). `flow` tags every packet. `hot`, when
  /// non-null, is the externally owned hot-state slot (a flat-array element
  /// from the scenario builder); it is (re)initialized here. Null uses the
  /// embedded fallback slot.
  TcpSender(Simulator& sim, FlowId flow, NodeId self, NodeId peer,
            PacketHandler* out, TcpSenderConfig config = {},
            TcpSenderHot* hot = nullptr);

  ~TcpSender();

  /// Begin transmitting at absolute virtual time `when`.
  void start(Time when);

  /// ACK arrival.
  void handle(Packet pkt) override;

  // --- observability ---
  double cwnd() const { return hot_->cwnd; }
  double ssthresh() const { return hot_->ssthresh; }
  bool in_fast_recovery() const { return hot_->in_fast_recovery; }
  Time srtt() const { return hot_->srtt; }
  Time rto() const { return hot_->rto; }
  std::int64_t snd_una() const { return hot_->snd_una; }
  std::int64_t next_seq() const { return hot_->next_seq; }
  const TcpSenderStats& stats() const { return stats_; }
  FlowId flow() const { return flow_; }
  const TcpSenderConfig& config() const { return config_; }

  /// Invoked as (time, cwnd) whenever cwnd changes; used for Fig. 1 traces.
  void set_cwnd_tracer(CwndTracer tracer) {
    cwnd_tracer_ = std::move(tracer);
  }

 private:
  void on_new_ack(const Packet& pkt);
  void on_dup_ack();
  void enter_fast_recovery();
  void on_partial_ack(std::int64_t newly_acked);
  void exit_fast_recovery();
  void on_timeout();
  void open_window_per_ack();
  void send_available();
  void emit_segment(std::int64_t seq, bool retransmit);
  void arm_rto();
  void disarm_rto();
  void sample_rtt(const Packet& pkt);
  void trace_cwnd();
  std::int64_t window() const;
  std::int64_t in_flight() const { return hot_->next_seq - hot_->snd_una; }

  Simulator& sim_;
  FlowId flow_;
  NodeId self_;
  NodeId peer_;
  PacketHandler* out_;
  TcpSenderConfig config_;

  TcpSenderHot* hot_;       // external flat-array slot, or &fallback_hot_
  TcpSenderHot fallback_hot_;

  TcpSenderStats stats_;
  CwndTracer cwnd_tracer_;
};

}  // namespace pdos
