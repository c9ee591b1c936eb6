// Warm-reuse determinism: a ScenarioWorkspace that has already run one
// scenario and been rewound must produce bit-identical results to a fresh
// Simulator for the next scenario — the reset contract the sweep engine's
// worker reuse depends on. Also pins the end-to-end resume path: running
// the same sweep twice against one cache file answers every task from the
// cache with a byte-identical CSV.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <sstream>
#include <string>

#include "core/experiment.hpp"
#include "sweep/point_cache.hpp"
#include "sweep/sweep.hpp"
#include "util/units.hpp"

namespace pdos {
namespace {

RunControl quick_control() {
  RunControl control;
  control.warmup = sec(2);
  control.measure = sec(5);
  return control;
}

PulseTrain quick_train() {
  PulseTrain train;
  train.textent = ms(50);
  train.rattack = mbps(25);
  train.tspace = ms(450);
  train.packet_bytes = 1040;
  return train;
}

void expect_identical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.goodput_bytes, b.goodput_bytes);
  EXPECT_EQ(a.goodput_rate, b.goodput_rate);
  EXPECT_EQ(a.per_flow_goodput, b.per_flow_goodput);
  EXPECT_EQ(a.fairness_index, b.fairness_index);
  EXPECT_EQ(a.incoming_bins, b.incoming_bins);
  EXPECT_EQ(a.attack_bins, b.attack_bins);
  EXPECT_EQ(a.queue_occupancy, b.queue_occupancy);
  EXPECT_EQ(a.red_avg_samples, b.red_avg_samples);
  EXPECT_EQ(a.bottleneck_queue.enqueued, b.bottleneck_queue.enqueued);
  EXPECT_EQ(a.bottleneck_queue.dropped, b.bottleneck_queue.dropped);
  EXPECT_EQ(a.total_timeouts, b.total_timeouts);
  EXPECT_EQ(a.total_fast_recoveries, b.total_fast_recoveries);
  EXPECT_EQ(a.total_retransmits, b.total_retransmits);
  EXPECT_EQ(a.mean_delivery_jitter, b.mean_delivery_jitter);
  EXPECT_EQ(a.attack_packets_sent, b.attack_packets_sent);
  EXPECT_EQ(a.events_executed, b.events_executed);
}

TEST(WarmReuseTest, ReusedWorkspaceMatchesFreshRuns) {
  const RunControl control = quick_control();
  const ScenarioConfig small = ScenarioConfig::ns2_dumbbell(5);
  ScenarioConfig large = ScenarioConfig::ns2_dumbbell(9);
  large.seed = 77;

  // Fresh-simulator references, one per scenario.
  const RunResult fresh_small = run_scenario(small, std::nullopt, control);
  const RunResult fresh_large =
      run_scenario(large, quick_train(), control);

  // One workspace runs them back to back (and once more to catch state
  // leaking across MORE than one reset).
  ScenarioWorkspace ws;
  expect_identical(ws.run(small, std::nullopt, control), fresh_small);
  expect_identical(ws.run(large, quick_train(), control), fresh_large);
  expect_identical(ws.run(small, std::nullopt, control), fresh_small);
}

TEST(WarmReuseTest, WarmRunsDoNotGrowTheArena) {
  const RunControl control = quick_control();
  const ScenarioConfig config = ScenarioConfig::ns2_dumbbell(5);

  ScenarioWorkspace ws;
  ws.run(config, quick_train(), control);
  const std::size_t reserved = ws.simulator().arena().bytes_reserved();
  ws.run(config, quick_train(), control);
  EXPECT_EQ(ws.simulator().arena().bytes_reserved(), reserved)
      << "an identical warm run must replay inside the retained blocks";
}

TEST(WarmReuseTest, CachedSweepReplaysByteIdentically) {
  char name[] = "/tmp/pdos_warm_reuse_cache_XXXXXX";
  const int fd = mkstemp(name);
  ASSERT_GE(fd, 0);
  close(fd);
  std::remove(name);
  const std::string cache_path = name;

  sweep::SweepSpec spec;
  spec.flow_counts = {5, 7};
  spec.textents = {ms(50)};
  spec.rattacks = {mbps(25)};
  spec.gammas = {0.4, 0.8};
  spec.control.warmup = sec(1);
  spec.control.measure = sec(3);

  // Each run opens the cache file afresh, as a resumed pdos_sweep does.
  const auto run_cached = [&] {
    sweep::PointCache cache(cache_path);
    sweep::SweepOptions options;
    options.threads = 1;
    options.store = &cache;
    return sweep::run_sweep(spec, options);
  };

  const sweep::SweepResult cold = run_cached();
  ASSERT_EQ(cold.failures(), 0u);
  EXPECT_EQ(cold.cache_hits, 0u);

  const sweep::SweepResult resumed = run_cached();
  ASSERT_EQ(resumed.failures(), 0u);
  // Every task answered from the cache: one baseline per flow count plus
  // every point.
  EXPECT_EQ(resumed.cache_hits, 2u + cold.points.size());

  std::ostringstream cold_csv;
  std::ostringstream resumed_csv;
  cold.write_csv(cold_csv);
  resumed.write_csv(resumed_csv);
  EXPECT_EQ(cold_csv.str(), resumed_csv.str())
      << "resume must reproduce the cold CSV byte for byte";

  std::remove(cache_path.c_str());
}

TEST(WarmReuseTest, SweepWithoutCachePathRecordsNoHits) {
  sweep::SweepSpec spec;
  spec.flow_counts = {5};
  spec.textents = {ms(50)};
  spec.rattacks = {mbps(25)};
  spec.gammas = {0.5};
  spec.control.warmup = sec(1);
  spec.control.measure = sec(2);
  sweep::SweepOptions options;
  options.threads = 1;
  const sweep::SweepResult result = sweep::run_sweep(spec, options);
  EXPECT_EQ(result.failures(), 0u);
  EXPECT_EQ(result.cache_hits, 0u);
}

}  // namespace
}  // namespace pdos
