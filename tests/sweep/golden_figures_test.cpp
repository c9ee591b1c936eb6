// Golden-output determinism pins for the figure scenarios beyond fig. 6.
//
// The fig06 digest (golden_output_test.cpp) covers the forward data path
// under the quick-mode sweep grid, but it never exercises a cwnd trace, the
// Dummynet-style DropTail bottleneck, or the test-bed's delayed-ACK (d = 2)
// reverse-path timing, nor any source besides one attacker. These digests
// close that gap:
//
//   fig03  — quasi-global synchronization trace: ns-2 dumbbell, 24 flows,
//            a 50 ms / 100 Mbps pulse every 2 s, cwnd trace of flow 0.
//   fig12  — test-bed scenario: 10 flows at 150 ms RTT, minRTO 200 ms,
//            delayed ACKs, run under BOTH the paper's RED config and a
//            Dummynet-style DropTail bottleneck.
//   mixed  — ns-2 dumbbell, 10 flows, 2 Mbps ON/OFF cross traffic and the
//            pulse train split over three phase-spread attackers, on both
//            the full and the fast packet path.
//
// Every numeric field of the RunResult — bins, traces, queue counters, TCP
// state counters, event count — is serialized at full precision (%.17g
// round-trips doubles exactly) and FNV-1a hashed. The fig03 and fig12
// digests were generated at commit 6550a94 (pre express-lane/event-fusion),
// the mixed-source ones at 00a1abe; every path must keep reproducing them
// bit-for-bit.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "attack/pulse.hpp"
#include "core/experiment.hpp"
#include "support/digest.hpp"
#include "util/units.hpp"

namespace pdos {
namespace {

// Serialization, hashing, and the pinned digests live in
// tests/support/digest.hpp.
using testsupport::fnv1a64;
using testsupport::kFig03Digest;
using testsupport::kFig12DropTailDigest;
using testsupport::kFig12RedDigest;
using testsupport::kMixedSourcesFastDigest;
using testsupport::kMixedSourcesFullDigest;
using testsupport::serialize;

TEST(GoldenFiguresTest, Fig03SynchronizationTraceMatchesDigest) {
  ScenarioConfig config = ScenarioConfig::ns2_dumbbell(24);
  PulseTrain train;
  train.textent = ms(50);
  train.rattack = mbps(100);
  train.tspace = ms(1950);

  RunControl control;
  control.warmup = sec(3);
  control.measure = sec(10);
  control.traced_flow = 0;

  const RunResult result = run_scenario(config, train, control);
  const std::uint64_t digest = fnv1a64(serialize(result));
  EXPECT_EQ(digest, kFig03Digest)
      << "fig03 scenario output changed: actual digest 0x" << std::hex
      << digest;
}

TEST(GoldenFiguresTest, Fig12TestbedRedMatchesDigest) {
  ScenarioConfig config = ScenarioConfig::testbed(10);
  const PulseTrain train =
      PulseTrain::from_gamma(ms(150), mbps(20), 0.5, config.bottleneck);

  RunControl control;
  control.warmup = sec(2);
  control.measure = sec(8);

  const RunResult result = run_scenario(config, train, control);
  const std::uint64_t digest = fnv1a64(serialize(result));
  EXPECT_EQ(digest, kFig12RedDigest)
      << "fig12 RED scenario output changed: actual digest 0x" << std::hex
      << digest;
}

TEST(GoldenFiguresTest, Fig12TestbedDropTailMatchesDigest) {
  // Same test-bed, Dummynet-style tail-drop bottleneck: exercises the
  // DropTail discipline end-to-end (including reverse-path ACK queueing)
  // rather than through unit tests alone.
  ScenarioConfig config = ScenarioConfig::testbed(10);
  config.queue = QueueKind::kDropTail;
  const PulseTrain train =
      PulseTrain::from_gamma(ms(150), mbps(20), 0.5, config.bottleneck);

  RunControl control;
  control.warmup = sec(2);
  control.measure = sec(8);

  const RunResult result = run_scenario(config, train, control);
  const std::uint64_t digest = fnv1a64(serialize(result));
  EXPECT_EQ(digest, kFig12DropTailDigest)
      << "fig12 DropTail scenario output changed: actual digest 0x"
      << std::hex << digest;
}

// Every source kind the dumbbell builder wires besides the TCP flows: an
// ON/OFF cross-traffic source and a pulse train split over three attackers
// with seeded start offsets, each on its own access link. Pinned on `full`
// (queued attacker links, one emission event per packet) and on `fast`
// (express attacker lanes with batched bursts, fused forward links).
RunResult run_mixed_sources(Backend backend) {
  ScenarioConfig config = ScenarioConfig::ns2_dumbbell(10);
  config.cross_traffic_rate = mbps(2);
  config.num_attackers = 3;
  config.attacker_phase_spread = ms(20);
  config.backend = backend;
  const PulseTrain train =
      PulseTrain::from_gamma(ms(50), mbps(30), 0.5, config.bottleneck);

  RunControl control;
  control.warmup = sec(2);
  control.measure = sec(6);
  control.traced_flow = 0;
  return run_scenario(config, train, control);
}

TEST(GoldenFiguresTest, MixedSourcesFullPathMatchesDigest) {
  const std::uint64_t digest =
      fnv1a64(serialize(run_mixed_sources(Backend::kFull)));
  EXPECT_EQ(digest, kMixedSourcesFullDigest)
      << "cross traffic + 3 attackers (full) output changed: actual digest 0x"
      << std::hex << digest;
}

TEST(GoldenFiguresTest, MixedSourcesFastPathMatchesDigest) {
  const std::uint64_t digest =
      fnv1a64(serialize(run_mixed_sources(Backend::kFast)));
  EXPECT_EQ(digest, kMixedSourcesFastDigest)
      << "cross traffic + 3 attackers (fast) output changed: actual digest 0x"
      << std::hex << digest;
}

}  // namespace
}  // namespace pdos
