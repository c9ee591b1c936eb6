// Outputs recorded at the commit that defined the benchmark. Packet-tier
// values are pinned bit for bit: a mismatch fails the run. Exact per-layer
// counts are reported against these values on every traced run, so a change
// in work done shows with zero noise; a changed count is reported, not
// failed. Regenerate a value only for a change that intentionally alters
// simulation results, from the actual value the mismatch message prints.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench::expected {

/// FNV-1a/64 of SweepResult::write_csv for each paper_sweep figure grid.
struct FigureDigest {
  double rattack_mbps;
  std::uint64_t csv;
};
inline const std::vector<FigureDigest> kPaperSweep = {
    {25, 0x355f2e94d3b98f75ull},
    {30, 0xa2ab32eeaca22803ull},
    {35, 0xd79e9e522ace1cdeull},
    {40, 0xd2b23c322b04a49bull},
};

/// Digest of one search's packet-confirmed outputs (see search_digest in
/// workloads.cpp), per search shape.
struct SearchDigest {
  int flows;
  double textent_ms;
  double rattack_mbps;
  std::uint64_t digest;
};
inline const std::vector<SearchDigest> kGammaSearch = {
    {15, 50, 25, 0x8f10c614b52ccfabull},  {15, 50, 30, 0x1f6016f9e4b45276ull},
    {15, 50, 35, 0xa3c66c69356dd7ccull},  {15, 50, 40, 0xaf1ed928c533d529ull},
    {15, 75, 25, 0x37dc69048256f7b7ull},  {15, 75, 30, 0x57e8f9003667d69cull},
    {15, 75, 35, 0x47e4c7e035226ae1ull},  {15, 75, 40, 0xb489ce965d1e880eull},
    {15, 100, 25, 0xa70421eb38f41516ull}, {15, 100, 30, 0x4ccbdbf709ad2ad8ull},
    {15, 100, 35, 0x52abc929faee8265ull}, {15, 100, 40, 0x85d3e7abf902fb51ull},
    {25, 50, 25, 0x1a2983bcf58f78e6ull},  {25, 50, 30, 0x7cfdf45d6cff1026ull},
    {25, 50, 35, 0x6142f71c32227285ull},  {25, 50, 40, 0x4e04567b16fd2cb4ull},
    {25, 75, 25, 0x11b6728e5ed27480ull},  {25, 75, 30, 0x25b513787bdb36c1ull},
    {25, 75, 35, 0x1751a6a67b1c709dull},  {25, 75, 40, 0xf2f997239488e91eull},
    {25, 100, 25, 0xe21e97e6ff784d54ull}, {25, 100, 30, 0x4b291caf5832f9f1ull},
    {25, 100, 35, 0xa930f3235a44a73aull}, {35, 50, 25, 0x6bd36caba662d31full},
    {35, 50, 30, 0xf0a107e589ba9dc3ull},  {35, 50, 35, 0xd8bacf8da332a06eull},
    {35, 50, 40, 0x0dbc391fe9485953ull},  {35, 75, 25, 0xf860332b9fe8891full},
    {35, 75, 30, 0x813e0aeee72732eaull},  {35, 75, 35, 0x228ef0112cfc71b3ull},
    {35, 75, 40, 0xace6d8e0c33a9defull},  {35, 100, 25, 0xc610eb9e60d2c353ull},
    {35, 100, 30, 0xd9b0c7b460250a69ull}, {45, 50, 25, 0x304aad8e1ab8d578ull},
    {45, 50, 30, 0xd04b3a090cb8fc75ull},  {45, 50, 35, 0x6358f80fbec8ababull},
    {45, 50, 40, 0x680e509775fdfa1full},  {45, 75, 25, 0xaaf59856df79ca62ull},
    {45, 75, 30, 0x0662461a9df94c65ull},  {45, 75, 35, 0x425ca1d0ce8977c1ull},
    {45, 100, 25, 0x9d166319acda3000ull},
};

/// RunResult counters of each gigabit_fast scenario seed.
struct GigabitCounters {
  std::uint64_t seed;
  std::uint64_t events;
  std::uint64_t pkts;
  std::uint64_t drops;
  std::uint64_t red_early;
  std::uint64_t red_forced;
  std::uint64_t timeouts;
  std::uint64_t fast_recoveries;
  std::uint64_t retransmits;
  std::uint64_t attack_pkts;
  std::uint64_t goodput_bytes;
};
inline const std::vector<GigabitCounters> kGigabitFast = {
    {1, 2063794, 532879, 12004, 12004, 0, 180, 3259, 7150, 190304, 290990000},
    {2, 2073373, 534666, 12133, 12133, 0, 167, 3338, 7590, 190304, 291603000},
    {3, 2084175, 536675, 12047, 12047, 0, 184, 3351, 7477, 190304, 290976000},
    {4, 2062276, 532055, 12237, 12237, 0, 196, 3349, 7598, 190304, 286561000},
};

/// Exact per-layer counts: they repeat bit for bit on every seed.
struct ExactCount {
  const char* workload;
  const char* metric;
  double value;
};
inline const std::vector<ExactCount> kExactCounts = {
    {"paper_sweep", "sim.events", 148005412},
    {"paper_sweep", "net.pkts", 3885635},
    {"paper_sweep", "net.drops", 299777},
    {"paper_sweep", "net.red_early_drops", 279093},
    {"paper_sweep", "net.red_forced_drops", 20684},
    {"paper_sweep", "tcp.timeouts", 13941},
    {"paper_sweep", "tcp.fast_recoveries", 31306},
    {"paper_sweep", "tcp.retransmits", 59638},
    {"paper_sweep", "attack.pkts", 2895319},
    {"paper_sweep", "sweep.tasks", 650},
    {"gamma_search", "sim.events", 47907101},
    {"gamma_search", "net.pkts", 5765741},
    {"gamma_search", "net.drops", 267015},
    {"gamma_search", "net.red_early_drops", 248939},
    {"gamma_search", "net.red_forced_drops", 18076},
    {"gamma_search", "tcp.timeouts", 13024},
    {"gamma_search", "tcp.fast_recoveries", 57367},
    {"gamma_search", "tcp.retransmits", 100261},
    {"gamma_search", "attack.pkts", 2833184},
    {"gamma_search", "fluid.lane_steps", 614633},
    {"gamma_search", "fluid.loss_events", 326384},
    {"gamma_search", "fluid.gap", 0.016937219823144514},
    {"gamma_search", "optimizer.packet_runs", 164},
    {"gamma_search", "optimizer.fluid_runs", 410},
    {"gamma_search", "optimizer.top1_hit_ratio", 34.0 / 41.0},
    {"fluid_campaign", "fluid.lane_steps", 18727539},
    {"fluid_campaign", "fluid.loss_events", 8807826},
    {"fluid_campaign", "sweep.tasks", 9850},
    {"gigabit_fast", "sim.events", 8283618},
    {"gigabit_fast", "net.pkts", 2136275},
    {"gigabit_fast", "net.drops", 48421},
    {"gigabit_fast", "net.red_early_drops", 48421},
    {"gigabit_fast", "net.red_forced_drops", 0},
    {"gigabit_fast", "tcp.timeouts", 727},
    {"gigabit_fast", "tcp.fast_recoveries", 13297},
    {"gigabit_fast", "tcp.retransmits", 29815},
    {"gigabit_fast", "attack.pkts", 761216},
};

}  // namespace perfbench::expected
