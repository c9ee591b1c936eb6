// Large-scale fast path: express ACK lane, event fusion, flat hot state.
//
// Two contracts from DESIGN.md §11:
//   1. `Backend::kFast` changes the event plumbing, never the packets — a
//      scenario run on it and on kFull must agree on every packet-level
//      output (goodput, drops, timeouts, jitter), while executing far
//      fewer scheduler events.
//   2. The per-flow hot path at N = 1000 — hot-slot updates, delivery
//      tracers into StatsHub's flat meter table, delayed-ACK timer churn,
//      express-lane ACK carriage — performs ZERO heap allocations at
//      steady state, verified with a counting global operator new.
// Further tests hold the fast path to `full` when attack pulses overlap in
// the attacker's access hop, and the arena's live bytes to the packets
// alive: at the end of a 250-flow run (DESIGN.md §10), and after a
// set-up-only 1000-flow run, where no attack packet exists yet.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <new>
#include <optional>
#include <vector>

#include "core/experiment.hpp"
#include "net/link.hpp"
#include "stats/stats_hub.hpp"
#include "tcp/flow_state.hpp"
#include "tcp/tcp_receiver.hpp"

namespace {

std::size_t g_new_calls = 0;

}  // namespace

// Counting global allocator hooks (single-threaded test binary). GCC's
// -Wmismatched-new-delete pairs allocation sites with the *named* standard
// operators, not with these replacements, so it cannot see that new, new[],
// delete, and delete[] below all share one malloc/free pool — silence the
// resulting false positive (CI builds with -Werror).
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  ++g_new_calls;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  ++g_new_calls;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace pdos {
namespace {

TEST(LargeScaleTest, FastPathIsPacketIdenticalToFullPath) {
  // Moderate size so the full path stays cheap; the equality is exact, not
  // statistical, because fusion and the express lane preserve every packet
  // timing, queue decision, and RNG draw.
  ScenarioConfig config = ScenarioConfig::large_scale(16, mbps(15));
  const PulseTrain train =
      PulseTrain::from_gamma(ms(50), mbps(25), 0.3, config.bottleneck);
  RunControl control;
  control.warmup = sec(2.0);
  control.measure = sec(6.0);

  ScenarioConfig full = config;
  full.backend = Backend::kFull;
  const RunResult fast = run_scenario(config, train, control);
  const RunResult slow = run_scenario(full, train, control);

  EXPECT_EQ(fast.per_flow_goodput, slow.per_flow_goodput);
  EXPECT_EQ(fast.goodput_bytes, slow.goodput_bytes);
  EXPECT_EQ(fast.fairness_index, slow.fairness_index);
  EXPECT_EQ(fast.incoming_bins, slow.incoming_bins);
  EXPECT_EQ(fast.attack_bins, slow.attack_bins);
  EXPECT_EQ(fast.bottleneck_queue.dropped, slow.bottleneck_queue.dropped);
  EXPECT_EQ(fast.bottleneck_queue.enqueued, slow.bottleneck_queue.enqueued);
  EXPECT_EQ(fast.red_early_drops, slow.red_early_drops);
  EXPECT_EQ(fast.red_forced_drops, slow.red_forced_drops);
  EXPECT_EQ(fast.total_timeouts, slow.total_timeouts);
  EXPECT_EQ(fast.total_retransmits, slow.total_retransmits);
  EXPECT_EQ(fast.mean_delivery_jitter, slow.mean_delivery_jitter);
  EXPECT_EQ(fast.attack_packets_sent, slow.attack_packets_sent);
  // The point of the exercise: the same packets, far fewer events.
  EXPECT_LT(fast.events_executed, slow.events_executed);
}

TEST(LargeScaleTest, FastPathMatchesFullUnderOverlappingBursts) {
  // Trains whose pulses fire while the previous pulse is still crossing the
  // attacker's 1 ms access hop: flooding (back-to-back pulses), and a
  // γ = 0.9 train with a T_space of 0.07 ms. The fast-path attacker queues
  // the new pulse behind the current one, as the access link's pipe would.
  ScenarioConfig config = ScenarioConfig::large_scale(16, mbps(15));
  RunControl control;
  control.warmup = sec(1.0);
  control.measure = sec(3.0);
  ScenarioConfig full = config;
  full.backend = Backend::kFull;

  for (const PulseTrain& train :
       {PulseTrain::flooding(mbps(20)),
        PulseTrain::from_gamma(ms(2), mbps(14), 0.9, config.bottleneck)}) {
    ASSERT_LT(train.tspace, ms(1));
    const RunResult fast = run_scenario(config, train, control);
    const RunResult slow = run_scenario(full, train, control);
    EXPECT_EQ(fast.incoming_bins, slow.incoming_bins);
    EXPECT_EQ(fast.attack_bins, slow.attack_bins);
    EXPECT_EQ(fast.per_flow_goodput, slow.per_flow_goodput);
    EXPECT_EQ(fast.bottleneck_queue.dropped, slow.bottleneck_queue.dropped);
    EXPECT_EQ(fast.bottleneck_queue.enqueued, slow.bottleneck_queue.enqueued);
    EXPECT_EQ(fast.red_early_drops, slow.red_early_drops);
    EXPECT_EQ(fast.red_forced_drops, slow.red_forced_drops);
    EXPECT_EQ(fast.total_timeouts, slow.total_timeouts);
    // attack_packets_sent is left out: the fast path counts a pulse whole
    // when it fires, so the pulse cut by the horizon is over-counted (under
    // flooding, 12,015 against full's 9,613; DESIGN.md §11).
  }
}

TEST(LargeScaleTest, SetUpOnlyRunMaterializesNoAttackPackets) {
  // perfbench's gigabit_fast set-up: a 1 ms run of the 1000-flow scenario.
  // Its first pulse (10,016 packets) arrives after the horizon, so the
  // attack must leave nothing in the arena beyond its attacker objects.
  const ScenarioConfig config = ScenarioConfig::large_scale(1000, gbps(1));
  const PulseTrain train = PulseTrain::from_gamma(
      ms(50), config.bottleneck * (25.0 / 15.0), 0.3, config.bottleneck);
  RunControl control;
  control.warmup = 0.0;
  control.measure = ms(1);

  ScenarioWorkspace attacked;
  ScenarioWorkspace quiet;
  (void)attacked.run(config, train, control);
  (void)quiet.run(config, std::nullopt, control);
  EXPECT_LE(attacked.simulator().arena().bytes_in_use(),
            quiet.simulator().arena().bytes_in_use() + 4096);
}

TEST(LargeScaleTest, ArenaHoldsLivePacketsNotEveryBuffersPeak) {
  // 250 flows on 250 Mbps under a γ = 0.3 pulse: about a thousand links
  // and queues, each of which once kept the capacity of its own busiest
  // instant (plus every outgrown buffer) in the arena for the whole run.
  // With chunked FIFOs over a recycling arena the live bytes at the end of
  // the run follow the packets in flight and queued.
  ScenarioConfig config = ScenarioConfig::large_scale(250, mbps(250));
  config.seed = 1;
  const PulseTrain train = PulseTrain::from_gamma(
      ms(50), config.bottleneck * (25.0 / 15.0), 0.3, config.bottleneck);
  RunControl control;
  control.warmup = sec(1.0);
  control.measure = sec(2.0);

  ScenarioWorkspace ws;
  const RunResult result = ws.run(config, train, control);
  EXPECT_EQ(result.events_executed, 283121u) << "the same events must fire";
  EXPECT_LE(ws.simulator().arena().bytes_in_use(), 2'500'000u);
}

TEST(LargeScaleTest, LargeScaleConfigScalesBufferWithRate) {
  const ScenarioConfig base = ScenarioConfig::large_scale(250, mbps(155));
  EXPECT_EQ(base.backend, Backend::kFast);
  EXPECT_EQ(base.num_flows, 250);
  EXPECT_EQ(base.buffer_packets,
            static_cast<std::size_t>(240.0 * mbps(155) / mbps(15)));
  const ScenarioConfig gig = ScenarioConfig::large_scale(1000);
  EXPECT_EQ(gig.buffer_packets, 16000u);
  EXPECT_EQ(static_cast<int>(gig.rtts.size()), 1000);
  gig.validate();
}

TEST(LargeScaleTest, ThousandFlowStatsPathIsAllocationFreeAtSteadyState) {
  constexpr int kFlows = 1000;
  constexpr int kWarmRounds = 60;
  constexpr int kMeasuredRounds = 60;

  Simulator sim(11);
  sim.reserve_events(4 * kFlows);
  StatsHub hub(ms(100), sec(10));
  hub.register_flows(kFlows);

  struct NullSink : PacketHandler {
    void handle(Packet) override {}
  };
  auto* sink = sim.make<NullSink>();

  // N receivers on flat hot slots, each ACKing through its own express
  // lane and tracing deliveries into the hub's flat meter table. Delayed
  // ACKs (d = 2) keep the delack timer arming/cancelling every round.
  TcpReceiverHot* hot =
      sim.make_array<TcpReceiverHot>(kFlows, sim.memory());
  TcpReceiverConfig rx_config;
  rx_config.delack_factor = 2;
  std::vector<TcpReceiver*> receivers;
  receivers.reserve(kFlows);
  for (int i = 0; i < kFlows; ++i) {
    auto* ack_lane = sim.make<Link>(sim, mbps(50), ms(10),
                                    static_cast<PacketHandler*>(sink));
    auto* rx = sim.make<TcpReceiver>(sim, FlowId{i}, NodeId{i},
                                     NodeId{kFlows + i}, ack_lane, rx_config,
                                     &hot[i]);
    rx->set_delivery_tracer(
        [hub_ptr = &hub, i](Time t, std::int64_t) {
          hub_ptr->on_delivery(static_cast<std::size_t>(i), t);
        });
    receivers.push_back(rx);
  }

  // One round = the next in-order segment delivered to all N receivers.
  struct Round {
    Simulator& sim;
    std::vector<TcpReceiver*>& rx;
    std::int64_t seq;
    int remaining;
    void operator()() const {
      for (auto* receiver : rx) {
        Packet pkt;
        pkt.type = PacketType::kTcpData;
        pkt.seq = seq;
        pkt.size_bytes = 1040;
        pkt.ts_echo = sim.now();
        receiver->handle(pkt);
      }
      if (remaining > 1) {
        sim.schedule(ms(10), Round{sim, rx, seq + 1, remaining - 1});
      }
    }
  };
  static_assert(sizeof(Round) <= kInlineFnCapacity,
                "driver must stay an inline closure");

  // Warm-up: grow scheduler slabs, express-lane rings, and every meter.
  sim.schedule(0.0, Round{sim, receivers, 0, kWarmRounds});
  sim.run();
  ASSERT_EQ(hot[0].next_expected, kWarmRounds);
  ASSERT_GT(hub.flow_meter(0).samples(), 0u);

  const std::size_t before = g_new_calls;
  sim.schedule(0.0, Round{sim, receivers, kWarmRounds, kMeasuredRounds});
  sim.run();
  const std::size_t after = g_new_calls;

  EXPECT_EQ(hot[kFlows - 1].next_expected, kWarmRounds + kMeasuredRounds);
  EXPECT_EQ(after - before, 0u)
      << "per-flow stats + hot-state path must not allocate at N=1000";
}

}  // namespace
}  // namespace pdos
