// Fluid AIMD surrogate tier (DESIGN.md §12).
//
// Evolves the dumbbell's congestion dynamics as a deterministic fluid
// system instead of a packet-level discrete-event simulation: one window
// ODE per RTT class, a shared bottleneck queue level, and a continuous
// analog of RED's EWMA estimator, integrated with an adaptive step that
// snaps to the discontinuities that drive a pulsing attack — pulse onsets
// and offsets, loss episodes (multiplicative decrease), and RTO freezes.
// The state is a handful of doubles per class, so evaluating a fig06 grid
// point costs microseconds where the packet path costs tens of
// milliseconds — this is the inner-loop surrogate the optimizer's
// search-then-confirm loop (core/optimizer) searches over, and the model
// behind the `fluid` backend of core/experiment.
//
// Dynamics (Misra/Gong/Towsley-style, specialized to the paper's set-up):
//
//   RTT_i(t)  = rtt_i + q(t)/C                 (propagation + queueing)
//   x_i(t)    = min(W_i/RTT_i, access) * n_i   (class arrival rate, pkts/s)
//   dq/dt     = (1-p) * (Σ x_i + A(t)) - C     (clamped to [0, B])
//   avg       <- q + (avg - q)(1-w_q)^n        (RED EWMA, n arrivals/step)
//   dW_i/dt   = a / (d * RTT_i)                (congestion avoidance)
//             = W_i ln(1 + 1/d) / RTT_i        (slow start, W < ssthresh)
//
// where A(t) is the attack pulse rate and p the RED early-drop probability
// implied by `avg` (forced drops add the queue-overflow excess). Losses
// integrate into a per-class pressure ∫λ_i dt; when it crosses one packet
// the class takes a discrete multiplicative decrease — or, when its window
// is too small to raise dupacks, an RTO freeze — mirroring NewReno's
// episode semantics rather than smearing the decrease continuously.
//
// Everything here is deterministic pure arithmetic: same config, same
// trajectory, bit-for-bit, no RNG.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "net/red.hpp"
#include "tcp/aimd.hpp"
#include "util/units.hpp"

namespace pdos::fluid {

/// One aggregated flow class: `count` identical flows at this RTT. The pure
/// backend uses one class per flow; million-flow scenarios can bin with
/// `bin_classes`.
struct FluidClass {
  Time rtt = ms(100);   // two-way propagation, seconds
  double count = 1.0;   // flows aggregated into this class
};

/// Opt-in class binning for very large flow populations: merge classes
/// with bit-equal RTTs exactly (their ODEs are identical, so summing the
/// counts is lossless), then, if more than `max_classes` distinct RTTs
/// remain, quantize them onto `max_classes` equal-width RTT bins and
/// collapse each occupied bin to one class at its count-weighted mean RTT.
/// Output is sorted by RTT. The solver never bins on its own — callers
/// with N ~ 1e6 flows shrink `FluidConfig::classes` through this before
/// `solve`, trading an RTT-quantization error (bounded by the bin width)
/// for a per-step cost that no longer scales with N. The total count mass
/// Σcount is preserved exactly (asserted internally): binning only moves
/// counts between buckets, and a drifted total would silently rescale
/// goodput normalization at the million-flow scale.
std::vector<FluidClass> bin_classes(std::vector<FluidClass> classes,
                                    std::size_t max_classes);

/// The fluid system: victim transport, bottleneck, AQM, and flow classes.
struct FluidConfig {
  AimdParams aimd = AimdParams::new_reno();
  Bytes spacket = 1040;            // MSS + headers, bytes on the wire
  BitRate bottleneck = mbps(15);
  BitRate access = mbps(50);       // per-flow rate cap
  RedParams red;                   // thresholds/capacity in packets
  bool droptail = false;           // true: no early drops, overflow only
  std::vector<FluidClass> classes;
  double initial_ssthresh = 64.0;  // slow-start/avoidance boundary, segments
  double max_cwnd = 10000.0;       // receiver-window stand-in, segments
  Time rto_min = sec(1.0);

  // Integration control: base step inside a pulse (where the queue and RED
  // average move fast) and between pulses (smooth drain/growth). The solver
  // additionally clips every step to the next discontinuity, so boundaries
  // are hit exactly regardless of step size.
  Time dt_pulse = ms(10.0);
  Time dt_idle = ms(20.0);

  /// Bottleneck service rate in packets/second.
  double capacity_pps() const {
    return bottleneck / (8.0 * static_cast<double>(spacket));
  }

  void validate() const;
};

/// The attack process, fluid view: a square wave of `rattack` for `textent`
/// every `textent + tspace` seconds, starting at t = 0.
struct FluidAttack {
  Time textent = ms(50);
  BitRate rattack = mbps(25);
  Time tspace = ms(1950);
  Bytes packet_bytes = 1040;

  Time period() const { return textent + tspace; }
  /// Throws ParameterError unless every field is positive (tspace >= 0).
  void validate() const;
};

/// Measurement window, mirroring core/experiment's RunControl.
struct FluidControl {
  Time warmup = sec(5.0);
  Time measure = sec(15.0);
  Time bin_width = ms(100);
  int traced_class = -1;  // >= 0: record (t, W) for that class
  Time horizon() const { return warmup + measure; }
  /// Throws ParameterError unless warmup >= 0, measure > 0 and
  /// bin_width > 0 (NaN fails each) and traced_class is -1 or one of the
  /// `classes` classes. Both fluid solvers check their control with it.
  void validate(std::size_t classes) const;
};

struct FluidResult {
  // Delivered TCP fluid over the measurement window only.
  double goodput_bytes = 0.0;
  BitRate goodput_rate = 0.0;
  double utilization = 0.0;
  std::vector<double> per_class_goodput_bytes;  // per class, not per flow

  // Whole-run series at bin_width resolution, like RunResult's.
  std::vector<double> incoming_bins;  // TCP + attack arrivals, bytes/bin
  std::vector<double> attack_bins;    // attack-only arrivals, bytes/bin
  std::vector<double> queue_occupancy;
  std::vector<double> red_avg_samples;
  Time bin_width = 0.0;

  double early_dropped_packets = 0.0;   // fluid early-drop mass
  double forced_dropped_packets = 0.0;  // fluid overflow mass
  std::uint64_t loss_events = 0;        // multiplicative decreases taken
  std::uint64_t timeouts = 0;           // RTO freezes entered
  std::uint64_t steps = 0;              // integrator steps executed

  std::vector<std::pair<Time, double>> cwnd_trace;  // if traced_class >= 0
};

/// RED early-drop probability for an average queue of `avg` packets, with
/// ns-2's count-based spreading folded in as its expectation: the marking
/// ramp gives p_b, uniformized inter-drop gaps make the realized drop rate
/// 2 p_b / (1 + p_b). The scalar form of the ramp `solve` and `solve_batch`
/// evaluate every step.
double red_drop_probability(const RedParams& params, double avg);

/// A bank of fluid AIMD classes: the per-class window state of `solve` and
/// its response to loss pressure.
class AimdBank {
 public:
  AimdBank() = default;
  AimdBank(const FluidConfig& config);

  /// Advance every window by `dt` under early-drop probability `p_early`,
  /// overflow fraction `forced_frac` (both applied to this bank's own
  /// arrivals), and queueing delay `queue_delay`. Returns the bank's
  /// aggregate *offered* arrival rate in packets/second over the step.
  double step(Time now, Time dt, double p_early, double forced_frac,
              Time queue_delay);

  /// Aggregate offered rate at the current state (no time advance); used to
  /// drive the queue balance before committing a step. The per-class rates
  /// are cached against (now, queue_delay), so the `step` that follows with
  /// the same arguments reuses them instead of recomputing.
  double offered_rate(Time now, Time queue_delay) const;

  /// Aggregate delivered-fluid tally, per class, in packets (real classes
  /// only — the SIMD padding tail is trimmed). `step` adds
  /// (1 - p_total) * x_i * dt each call.
  std::vector<double> delivered_packets() const;
  /// Snapshot used to measure a window: delivered minus a mark.
  std::vector<double> delivered_since(const std::vector<double>& mark) const;

  double window(std::size_t i) const { return w_[i]; }
  std::size_t size() const { return n_; }
  /// Earliest pending RTO expiry, or +inf; a discontinuity the caller's
  /// step must not straddle.
  Time next_rto_expiry() const;

  std::uint64_t loss_events = 0;
  std::uint64_t timeouts = 0;

 private:
  // Config mirror (kept by value: the bank outlives no config).
  AimdParams aimd_;
  double access_pps_ = 0.0;   // per-flow rate cap, pkts/s
  double ssthresh0_ = 64.0;
  double max_cwnd_ = 10000.0;
  Time rto_min_ = sec(1.0);
  double ss_log_ = 0.0;       // ln(1 + 1/d): slow-start growth constant

  /// Fill `x_` with per-class arrival rates for (now, queue_delay) unless
  /// the cache already holds them; returns the aggregate offered rate.
  double refresh_rates(Time now, Time queue_delay) const;

  // The SoA state below is padded from n_ real classes to n_pad_ (the
  // next multiple of the SIMD block width). Pad classes carry rtt = +inf
  // and count = 0, which makes them arithmetically invisible: zero
  // arrival rate, bit-frozen windows, exact +0.0 reduction terms (see
  // src/fluid/kernels.hpp). Only the first n_ entries are observable
  // through the public API.
  std::size_t n_ = 0;             // real classes
  std::size_t n_pad_ = 0;         // padded SoA length
  std::vector<double> rtt_;       // propagation RTT per class
  std::vector<double> count_;     // flows per class
  std::vector<double> w_;         // window, segments
  std::vector<double> ssthresh_;  // slow-start threshold, segments
  std::vector<double> accum_;     // integrated loss pressure, packets
  std::vector<double> md_gate_;   // earliest next multiplicative decrease
  std::vector<double> rto_until_; // > now: frozen in timeout
  std::vector<double> delivered_; // delivered fluid, packets

  // Arrival-rate cache: x_ holds per-class rates and inv_ the matching
  // 1/(rtt + queue_delay) reciprocals, valid for (x_now_, x_delay_);
  // step() invalidates both after mutating the windows. Caching the
  // reciprocal makes the rate pass the only division per chunk-step.
  mutable std::vector<double> x_;
  mutable std::vector<double> cx_;   // count * x, the reduction terms
  mutable std::vector<double> inv_;
  mutable double x_offered_ = 0.0;
  mutable Time x_now_ = -1.0;
  mutable Time x_delay_ = -1.0;
};

/// Run the pure-fluid backend: warmup + measurement under an optional pulse
/// train, returning the same observables the packet path reports.
FluidResult solve(const FluidConfig& config,
                  const std::optional<FluidAttack>& attack,
                  const FluidControl& control);

/// Name of the SIMD backend of the class axis (solve's AimdBank): "avx2",
/// "neon", or "scalar" (also what PDOS_SIMD=OFF forces); solve_batch's
/// lanes may run wider (batch_simd_backend()). Results are the same bits by
/// construction (fixed 4-wide block-tree reductions, no FMA contraction
/// — DESIGN.md §16); this is for bench gating and test skip messages.
const char* simd_backend();

// --- Committed fluid-vs-packet agreement tolerances ---------------------
//
// Measured on the fig06-fig09 quick grids (ns-2 dumbbell, 15-45 flows,
// T_extent 50-100 ms, R_attack 25-40 Mbps, auto-γ grids, seed 1, the
// default dt_pulse/dt_idle above; see
// tests/fluid/fluid_agreement_test.cpp): per-point |Γ_fluid − Γ_packet|
// peaks at 0.157 (fig07-09 slice) / 0.091 (fig06), grid means at 0.050 /
// 0.037. The committed bounds below add modest headroom over those
// measurements; they are what the agreement tests enforce per grid and
// what the optimizer's search-then-confirm loop relies on.
inline constexpr double kDegradationAbsTol = 0.20;   // per-point |ΓF - ΓP|
inline constexpr double kDegradationMeanTol = 0.08;  // grid mean |ΓF - ΓP|

}  // namespace pdos::fluid
