// Allocation audit for a warm ScenarioWorkspace run.
//
// A warm workspace (arena blocks, scheduler slabs, and container capacities
// sized by an earlier, longer run) still allocates a fixed handful of
// blocks per run: the result vectors, the stats hub's bin arrays, the
// config copy. None of that may scale with the horizon. So a run of twice
// the length must perform exactly as many heap allocations as a run of
// half of it: an event loop that allocates per event, per packet, or per
// bin anywhere along the instrumented path (arrival tap, occupancy
// sampler, jitter meters) fails the equality.
//
// Own test binary: it overrides global operator new, which must not leak
// into the other suites.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <new>

#include "attack/pulse.hpp"
#include "core/experiment.hpp"
#include "core/planner.hpp"

namespace {

std::size_t g_new_calls = 0;

}  // namespace

// Counting global allocator hooks. Single-threaded test binary, so a plain
// counter is enough; all variants funnel through these two signatures.
void* operator new(std::size_t size) {
  ++g_new_calls;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace pdos {
namespace {

TEST(WarmRunAllocTest, AllocationsDoNotGrowWithTheHorizon) {
  ScenarioConfig config = ScenarioConfig::ns2_dumbbell(4);
  RunControl short_run;
  short_run.warmup = sec(0.5);
  short_run.measure = sec(1.5);
  RunControl long_run = short_run;
  long_run.measure = 2.0 * short_run.horizon() - short_run.warmup;
  ASSERT_EQ(long_run.horizon(), 2.0 * short_run.horizon());

  AttackPlanRequest request;
  request.victim = config.victim_profile();
  request.textent = ms(50);
  request.rattack = mbps(25);
  request.attack_packet_bytes = config.attack_packet_bytes;
  request.victim_min_rto = config.tcp.rto_min;
  const PulseTrain train = plan_attack_at_gamma(request, 0.5).train;

  // Warm at the longer horizon: the shorter run is a prefix of it (same
  // seed, same events), so every high-water mark is already reached.
  ScenarioWorkspace ws;
  (void)ws.run(config, train, long_run);

  std::size_t before = g_new_calls;
  const RunResult short_result = ws.run(config, train, short_run);
  const std::size_t short_allocs = g_new_calls - before;

  before = g_new_calls;
  const RunResult long_result = ws.run(config, train, long_run);
  const std::size_t long_allocs = g_new_calls - before;

  EXPECT_EQ(long_allocs, short_allocs)
      << "a warm run's allocation count grew with its horizon";
  EXPECT_GT(short_result.goodput_bytes, 0u);
  EXPECT_GT(long_result.events_executed, short_result.events_executed);
}

TEST(WarmRunAllocTest, FastPathAllocationsDoNotGrowWithTheHorizon) {
  // The fast path, under a train whose pulses fire while the previous one
  // is still crossing the attacker's access hop, so the attacker's queue
  // of waiting pulses is in use throughout.
  const ScenarioConfig config = ScenarioConfig::large_scale(16, mbps(15));
  ASSERT_EQ(config.backend, Backend::kFast);
  const PulseTrain train =
      PulseTrain::from_gamma(ms(2), mbps(14), 0.9, config.bottleneck);
  RunControl short_run;
  short_run.warmup = sec(0.5);
  short_run.measure = sec(1.5);
  RunControl long_run = short_run;
  long_run.measure = 2.0 * short_run.horizon() - short_run.warmup;

  ScenarioWorkspace ws;
  (void)ws.run(config, train, long_run);

  std::size_t before = g_new_calls;
  const RunResult short_result = ws.run(config, train, short_run);
  const std::size_t short_allocs = g_new_calls - before;

  before = g_new_calls;
  const RunResult long_result = ws.run(config, train, long_run);
  const std::size_t long_allocs = g_new_calls - before;

  EXPECT_EQ(long_allocs, short_allocs)
      << "a warm fast-path run's allocation count grew with its horizon";
  EXPECT_GT(short_result.attack_packets_sent, 0u);
  EXPECT_GT(long_result.events_executed, short_result.events_executed);
}

}  // namespace
}  // namespace pdos
