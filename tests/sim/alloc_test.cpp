// Steady-state allocation audit for the event engine.
//
// The engine's contract is that a warmed-up scheduler performs ZERO heap
// allocations: closures live inline in their slots (InlineFn), the heap
// array and slot slabs are pre-sized by reserve(), and freed slots recycle
// through the free list. These tests count every global operator new call
// across 1e5-event workloads and require the delta to be exactly zero.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <new>

#include "net/droptail.hpp"
#include "net/link.hpp"
#include "net/node.hpp"
#include "net/red.hpp"
#include "sim/scheduler.hpp"
#include "sim/simulator.hpp"
#include "sim/timer.hpp"
#include "traffic/sources.hpp"

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

constexpr int kEvents = 100000;

TEST(AllocTest, ReservedSchedulerRunsEventsAllocationFree) {
  Scheduler sched;
  sched.reserve(kEvents);
  long long sink = 0;

  const std::size_t before = g_new_calls;
  for (int i = 0; i < kEvents; ++i) {
    sched.schedule(static_cast<Time>(i % 97), [&sink] { ++sink; });
  }
  sched.run();
  const std::size_t after = g_new_calls;

  EXPECT_EQ(sink, kEvents);
  EXPECT_EQ(after - before, 0u)
      << "scheduling+running " << kEvents
      << " events must not touch the heap after reserve()";
}

TEST(AllocTest, SelfChainingEventStaysAllocationFree) {
  // The common simulation shape: a small pending population churning
  // through slot reuse. Needs only a tiny reserve, not one per event.
  Scheduler sched;
  sched.reserve(8);
  int remaining = kEvents;

  const std::size_t before = g_new_calls;
  struct Chain {
    Scheduler& sched;
    int& remaining;
    void operator()() const {
      if (--remaining > 0) sched.schedule(0.5, Chain{sched, remaining});
    }
  };
  sched.schedule(0.5, Chain{sched, remaining});
  sched.run();
  const std::size_t after = g_new_calls;

  EXPECT_EQ(remaining, 0);
  EXPECT_EQ(after - before, 0u);
}

TEST(AllocTest, TimerRestartLoopStaysAllocationFree) {
  Scheduler sched;
  sched.reserve(8);
  int fired = 0;

  const std::size_t before = g_new_calls;
  {
    Timer timer(sched, [&] { ++fired; });
    // Restart a pending timer 10k times, then let it fire.
    timer.schedule_at(1.0);
    for (int i = 0; i < 10000; ++i) {
      timer.schedule_at(1.0 + 0.001 * i);
    }
    sched.run();
  }
  const std::size_t after = g_new_calls;

  EXPECT_EQ(fired, 1) << "restarts move one logical deadline";
  EXPECT_EQ(after - before, 0u);
}

TEST(AllocTest, CancelScheduleChurnStaysAllocationFree) {
  // TCP RTO shape: arm, cancel, re-arm. Slot recycling must keep the
  // working set constant.
  Scheduler sched;
  sched.reserve(8);

  const std::size_t before = g_new_calls;
  EventId pending = kInvalidEventId;
  for (int i = 0; i < 50000; ++i) {
    if (pending != kInvalidEventId) sched.cancel(pending);
    pending = sched.schedule(1000.0, [] {});
  }
  sched.run();
  const std::size_t after = g_new_calls;

  EXPECT_EQ(after - before, 0u);
}

TEST(AllocTest, TappedLinkPipelineStaysAllocationFree) {
  // End-to-end data path: packets burst into a tapped link faster than it
  // drains, so the queue fills, the propagation rings wrap, and the arrival
  // tap fires per packet. After one warm-up burst has grown every ring to its
  // high-water mark, a second identical burst must not touch the allocator.
  Simulator sim(7);
  sim.reserve_events(64);

  struct CountingSink : PacketHandler {
    long long received = 0;
    void handle(Packet) override { ++received; }
  };
  auto* sink = sim.make<CountingSink>();
  auto* link = sim.make<Link>(sim, mbps(10), ms(5),
                              sim.make<DropTailQueue>(32), sink);
  long long arrivals = 0;
  link->add_arrival_tap([&arrivals](const Packet&) { ++arrivals; });

  struct BurstSource {
    Simulator& sim;
    Link& link;
    int remaining;
    void operator()() const {
      Packet pkt;
      pkt.type = PacketType::kUdp;
      pkt.size_bytes = 1040;
      link.handle(pkt);
      if (remaining > 1) {
        // Twice the service rate: the queue builds up, then drains during
        // the inter-burst gap.
        sim.schedule(transmission_time(1040, mbps(20)),
                     BurstSource{sim, link, remaining - 1});
      }
    }
  };

  // Warm-up: grow the queue ring, the in-flight rings, and the slot slabs.
  sim.schedule(0.0, BurstSource{sim, *link, 500});
  sim.run();
  const long long warm_received = sink->received;
  ASSERT_GT(warm_received, 0);

  const std::size_t before = g_new_calls;
  sim.schedule(0.0, BurstSource{sim, *link, 500});
  sim.run();
  const std::size_t after = g_new_calls;

  EXPECT_EQ(sink->received, 2 * warm_received)
      << "identical bursts through an identical pipeline";
  EXPECT_EQ(arrivals, 1000);
  EXPECT_EQ(after - before, 0u)
      << "a warmed-up tapped link must move packets without allocating";
}

TEST(AllocTest, WarmResetRebuildRunsAllocationFree) {
  // The sweep engine's warm-reuse contract: after one cold
  // build+run+reset cycle has sized the arena, the scheduler slabs, and
  // every pmr container, repeating the identical cycle must not touch the
  // system allocator at all — construction included.
  Simulator sim(3);

  struct CountingSink : PacketHandler {
    long long received = 0;
    void handle(Packet) override { ++received; }
  };

  constexpr std::uint64_t kQueueStream = 0x71756575'65000000ULL;
  long long cold_received = 0;

  const auto build_and_run = [&](long long& received_out) {
    auto* sink = sim.make<CountingSink>();
    auto* red = sim.make<RedQueue>(RedParams::paper_testbed(32),
                                   sim.stream(kQueueStream), sim.memory());
    auto* link = sim.make<Link>(sim, mbps(10), ms(5), red, sink);
    auto* src = sim.make<Node>(NodeId{0}, sim.memory());
    src->add_route(NodeId{1}, link);
    auto* cbr = sim.make<CbrSource>(sim, mbps(12), 1040, NodeId{0}, NodeId{1},
                                    src);
    cbr->start(0.0);
    sim.run_until(sec(2.0));
    received_out = sink->received;
  };

  // Cold cycle: grows every slab to its high-water mark.
  build_and_run(cold_received);
  ASSERT_GT(cold_received, 0);
  sim.reset(3);
  // One warm cycle to let lazily-grown structures (rings that wrapped at a
  // different fill point, the dtor list) settle at their final capacity.
  long long warm_received = 0;
  build_and_run(warm_received);
  EXPECT_EQ(warm_received, cold_received) << "reset must be deterministic";
  sim.reset(3);

  const std::size_t before = g_new_calls;
  long long steady_received = 0;
  build_and_run(steady_received);
  sim.reset(3);
  const std::size_t after = g_new_calls;

  EXPECT_EQ(steady_received, cold_received);
  EXPECT_EQ(after - before, 0u)
      << "a warm rebuild+run+reset cycle must not allocate";
}

}  // namespace
}  // namespace pdos
