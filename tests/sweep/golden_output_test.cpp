// Golden-output determinism pin for the packet data path.
//
// Runs the fig. 6 quick-mode sweep (15-45 flows x T_extent 50/75/100 ms x
// 7 auto-γ) single-threaded and checksums the CSV it would write. The digest
// below was generated from the pre-overhaul data path (std::deque buffers,
// std::function taps, per-packet BinnedSeries::add), so any change to
// packet handling that alters simulation results for identical seeds —
// dropped packets, reordered arithmetic, different RNG consumption — fails
// here instead of silently shifting every figure. "Byte-identical for
// identical seeds" is pinned by CI, not just claimed in CHANGES.md.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "sweep/sweep.hpp"
#include "util/units.hpp"

namespace pdos {
namespace {

std::uint64_t fnv1a64(const std::string& text) {
  std::uint64_t hash = 1469598103934665603ull;
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

// FNV-1a/64 of the fig. 6 quick-mode sweep CSV (84 points + header),
// generated at commit 9c72705 (pre data-path overhaul). Regenerate ONLY for
// a change that intentionally alters simulation semantics, and say so in
// the commit message.
constexpr std::uint64_t kFig06QuickCsvDigest = 0x10a056e89b4efd24ull;

TEST(GoldenOutputTest, Fig06QuickModeCsvMatchesCommittedDigest) {
  sweep::SweepSpec spec;
  spec.flow_counts = {15, 25, 35, 45};
  spec.textents = {ms(50), ms(75), ms(100)};
  spec.rattacks = {mbps(25)};
  spec.gamma_points = 7;
  spec.control.warmup = sec(5);
  spec.control.measure = sec(15);

  sweep::SweepOptions options;
  options.threads = 1;
  const sweep::SweepResult result = sweep::run_sweep(spec, options);
  ASSERT_EQ(result.failures(), 0u);
  ASSERT_FALSE(result.cancelled);

  std::ostringstream csv;
  result.write_csv(csv);
  const std::uint64_t digest = fnv1a64(csv.str());
  EXPECT_EQ(digest, kFig06QuickCsvDigest)
      << "fig06 quick-mode CSV changed: actual digest 0x" << std::hex
      << digest << " — the data path no longer reproduces the pinned "
      << "outputs for identical seeds";
}

}  // namespace
}  // namespace pdos
