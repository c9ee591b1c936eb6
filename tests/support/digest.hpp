// RunResult serialization + FNV-1a digest helpers and the pinned digests of
// the golden determinism suite (tests/sweep/golden_figures_test.cpp). Every
// numeric field is rendered at full precision (%.17g round-trips doubles
// exactly) so a digest match means the results are bit-identical, not
// merely close.
#pragma once

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>

#include "core/experiment.hpp"

namespace pdos::testsupport {

inline std::uint64_t fnv1a64(const std::string& text) {
  std::uint64_t hash = 1469598103934665603ull;
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

inline void append(std::string& out, const char* key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s=%.17g\n", key, value);
  out += buf;
}

inline void append(std::string& out, const char* key, std::uint64_t value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s=%" PRIu64 "\n", key, value);
  out += buf;
}

/// Serialize every observable field of a RunResult at full precision.
inline std::string serialize(const RunResult& r) {
  std::string out;
  append(out, "goodput_bytes", static_cast<std::uint64_t>(r.goodput_bytes));
  append(out, "goodput_rate", r.goodput_rate);
  append(out, "utilization", r.utilization);
  append(out, "fairness", r.fairness_index);
  append(out, "bin_width", r.bin_width);
  for (Bytes b : r.per_flow_goodput) {
    append(out, "flow", static_cast<std::uint64_t>(b));
  }
  for (double v : r.incoming_bins) append(out, "in", v);
  for (double v : r.attack_bins) append(out, "atk", v);
  for (double v : r.queue_occupancy) append(out, "occ", v);
  for (double v : r.red_avg_samples) append(out, "avg", v);
  append(out, "q_enqueued", r.bottleneck_queue.enqueued);
  append(out, "q_dequeued", r.bottleneck_queue.dequeued);
  append(out, "q_dropped", r.bottleneck_queue.dropped);
  append(out, "q_dropped_tcp", r.bottleneck_queue.dropped_tcp);
  append(out, "q_dropped_attack", r.bottleneck_queue.dropped_attack);
  append(out, "q_bytes_dropped", r.bottleneck_queue.bytes_dropped);
  append(out, "red_early", r.red_early_drops);
  append(out, "red_forced", r.red_forced_drops);
  append(out, "timeouts", r.total_timeouts);
  append(out, "fast_recoveries", r.total_fast_recoveries);
  append(out, "retransmits", r.total_retransmits);
  append(out, "jitter", r.mean_delivery_jitter);
  append(out, "attack_packets", r.attack_packets_sent);
  append(out, "events", r.events_executed);
  for (const auto& [t, w] : r.cwnd_trace) {
    append(out, "cwnd_t", t);
    append(out, "cwnd_w", w);
  }
  return out;
}

// Golden digests generated at commit 6550a94 (see golden_figures_test.cpp).
// Regenerate ONLY for a change that intentionally alters simulation
// semantics, and say so in the commit message.
inline constexpr std::uint64_t kFig03Digest = 0xdb3c1966f47adfa2ull;
inline constexpr std::uint64_t kFig12RedDigest = 0x328f57d94a030509ull;
inline constexpr std::uint64_t kFig12DropTailDigest = 0xebe7d50b5a3f53cfull;

// Cross traffic plus three phase-spread attackers on the ns-2 dumbbell, on
// both packet backends. Recorded at commit 00a1abe, before the dumbbell
// builder wired the sources straight into their access links.
inline constexpr std::uint64_t kMixedSourcesFullDigest = 0xaa371b417887ba75ull;
inline constexpr std::uint64_t kMixedSourcesFastDigest = 0x867e038af2428353ull;

}  // namespace pdos::testsupport
