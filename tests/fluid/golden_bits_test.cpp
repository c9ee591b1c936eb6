// Recorded output bits of the fluid tier (src/fluid): an FNV-1a digest of
// the raw IEEE-754 bytes of every FluidResult field, over a fixed set of
// topologies, controls and attack lanes, from both fluid::solve and
// fluid::solve_batch. batch_test pins solve_batch ≡ solve inside one
// build and the agreement tests only bound |ΔΓ|, so this is the test that
// fails when an edit to the shared driver or kernel arithmetic moves a
// single bit. One constant pins every SIMD backend: the AVX2/NEON and
// -DPDOS_SIMD=OFF scalar builds must all reproduce it, through every
// solve_batch lane variant the CPU runs (DESIGN.md §16).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <optional>
#include <vector>

#include "core/experiment.hpp"
#include "fluid/batch.hpp"
#include "fluid/batch_lanes.hpp"
#include "fluid/fluid.hpp"

namespace pdos::fluid {
namespace {

// Digest of every result below on the solver arithmetic this test was
// recorded against. A change here is a change of the fluid tier's output:
// it needs a point-cache schema bump (§10), not just a new constant.
constexpr std::uint64_t kGoldenDigest = 0x521fd46cf2be1cebull;

class Fnv1a {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ b[i]) * 0x100000001b3ull;
    }
  }
  void f64(double x) { bytes(&x, sizeof(x)); }
  void u64(std::uint64_t x) { bytes(&x, sizeof(x)); }
  void series(const std::vector<double>& v) {
    u64(v.size());
    for (double x : v) f64(x);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

// Every field batch_test's expect_result_bits_equal compares, in its order.
void hash_result(Fnv1a& h, const FluidResult& r) {
  h.f64(r.goodput_bytes);
  h.f64(r.goodput_rate);
  h.f64(r.utilization);
  h.series(r.per_class_goodput_bytes);
  h.series(r.incoming_bins);
  h.series(r.attack_bins);
  h.series(r.queue_occupancy);
  h.series(r.red_avg_samples);
  h.f64(r.bin_width);
  h.f64(r.early_dropped_packets);
  h.f64(r.forced_dropped_packets);
  h.u64(r.loss_events);
  h.u64(r.timeouts);
  h.u64(r.steps);
  h.u64(r.cwnd_trace.size());
  for (const auto& [t, w] : r.cwnd_trace) {
    h.f64(t);
    h.f64(w);
  }
}

FluidAttack attack_at(Time textent, BitRate rattack, double gamma) {
  FluidAttack attack;
  attack.textent = textent;
  attack.rattack = rattack;
  attack.tspace = textent * (1.0 - gamma) / gamma;
  return attack;
}

// A baseline lane, a γ grid at 50 ms / 25 Mbps, a severe 200 ms / 40 Mbps
// lane that drives windows into RTO freezes, and a short 20 ms / 50 Mbps
// lane; 11 lanes, so solve_batch also carries a pad lane.
std::vector<BatchLane> golden_lanes() {
  std::vector<BatchLane> lanes;
  lanes.push_back({std::nullopt});
  for (double gamma : {0.15, 0.3, 0.45, 0.6, 0.75, 0.85, 0.9, 0.95}) {
    lanes.push_back({attack_at(ms(50), mbps(25), gamma)});
  }
  FluidAttack severe;
  severe.textent = ms(200);
  severe.rattack = mbps(40);
  severe.tspace = ms(100);
  lanes.push_back({severe});
  lanes.push_back({attack_at(ms(20), mbps(50), 0.3)});
  return lanes;
}

struct GoldenCase {
  FluidConfig config;
  FluidControl control;
};

// RED and DropTail × 15 and 45 flows × warmup 0 and 2 s × untraced and
// traced class 3, each over a short 6 s measurement window.
std::vector<GoldenCase> golden_cases() {
  std::vector<GoldenCase> cases;
  for (bool droptail : {false, true}) {
    for (int flows : {15, 45}) {
      for (Time warmup : {0.0, sec(2)}) {
        for (int traced : {-1, 3}) {
          ScenarioConfig scenario = ScenarioConfig::ns2_dumbbell(flows);
          scenario.queue = droptail ? QueueKind::kDropTail : QueueKind::kRed;
          GoldenCase c;
          c.config = make_fluid_config(scenario);
          c.control.warmup = warmup;
          c.control.measure = sec(6);
          c.control.traced_class = traced;
          cases.push_back(c);
        }
      }
    }
  }
  return cases;
}

TEST(FluidGoldenBitsTest, SolveMatchesRecordedDigest) {
  const std::vector<BatchLane> lanes = golden_lanes();
  Fnv1a h;
  for (const GoldenCase& c : golden_cases()) {
    for (const BatchLane& lane : lanes) {
      hash_result(h, solve(c.config, lane.attack, c.control));
    }
  }
  EXPECT_EQ(h.value(), kGoldenDigest)
      << std::hex << "digest 0x" << h.value() << " on the "
      << simd_backend() << " backend";
}

TEST(FluidGoldenBitsTest, SolveBatchMatchesRecordedDigest) {
  // Every lane variant the CPU runs, the one solve_batch picks included.
  const std::vector<BatchLane> lanes = golden_lanes();
  for (const detail::LaneVariant& variant : detail::lane_variants()) {
    if (!variant.cpu_supports()) continue;
    Fnv1a h;
    for (const GoldenCase& c : golden_cases()) {
      for (const FluidResult& r :
           detail::solve_batch_on(variant, c.config, lanes, c.control)) {
        hash_result(h, r);
      }
    }
    EXPECT_EQ(h.value(), kGoldenDigest)
        << std::hex << "digest 0x" << h.value() << " on " << variant.backend
        << " lanes, " << simd_backend() << " classes";
  }
  std::printf("solve_batch runs the %s lane variant on this CPU\n",
              batch_simd_backend());
}

}  // namespace
}  // namespace pdos::fluid
