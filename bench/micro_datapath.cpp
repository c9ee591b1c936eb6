// Data-path microbenchmarks (google-benchmark): the packet ring, the queue
// disciplines' ring-backed enqueue/dequeue, link service with and without
// taps, and the batched StatsHub sink. These isolate the per-packet layers
// under perfbench's end-to-end numbers and its traced net.events_per_pkt.
#include <benchmark/benchmark.h>

#include <memory>

#include "net/droptail.hpp"
#include "net/link.hpp"
#include "net/packet_ring.hpp"
#include "sim/simulator.hpp"
#include "stats/stats_hub.hpp"

namespace pdos {
namespace {

Packet attack_packet() {
  Packet pkt;
  pkt.type = PacketType::kAttack;
  pkt.size_bytes = 1040;
  return pkt;
}

void BM_PacketRingChurn(benchmark::State& state) {
  // Steady-state FIFO churn at a queue-like occupancy: push a burst, drain
  // it, never reallocating after the first lap.
  PacketRing ring;
  ring.reserve(256);
  const Packet pkt = attack_packet();
  for (auto _ : state) {
    for (int i = 0; i < 128; ++i) ring.push_back(pkt);
    while (!ring.empty()) benchmark::DoNotOptimize(ring.pop_front());
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_PacketRingChurn);

void BM_PacketRingWrappedChurn(benchmark::State& state) {
  // One-in-one-out around the wrap point: the link's propagation pipeline
  // shape, where head and tail chase each other across the mask boundary.
  PacketRing ring;
  ring.reserve(8);
  const Packet pkt = attack_packet();
  for (int i = 0; i < 5; ++i) ring.push_back(pkt);
  for (auto _ : state) {
    ring.push_back(pkt);
    benchmark::DoNotOptimize(ring.pop_front());
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_PacketRingWrappedChurn);

struct NullSink : PacketHandler {
  long long received = 0;
  void handle(Packet) override { ++received; }
};

/// Drive `packets` through a 10 Mbps / 5 ms link at twice its service rate
/// (queue builds, then drains), returning events executed.
std::uint64_t run_link_pipeline(Link& link, Simulator& sim, int packets) {
  struct Source {
    Simulator& sim;
    Link& link;
    int remaining;
    void operator()() const {
      link.handle(attack_packet());
      if (remaining > 1) {
        sim.schedule(transmission_time(1040, mbps(20)),
                     Source{sim, link, remaining - 1});
      }
    }
  };
  sim.schedule(0.0, Source{sim, link, packets});
  return sim.run();
}

void BM_LinkServiceUntapped(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim(1);
    sim.reserve_events(64);
    auto* sink = sim.make<NullSink>();
    auto* link = sim.make<Link>(sim, "l", mbps(10), ms(5),
                                std::make_unique<DropTailQueue>(64), sink);
    run_link_pipeline(*link, sim, 1000);
    benchmark::DoNotOptimize(sink->received);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
  state.SetLabel("items = packets offered");
}
BENCHMARK(BM_LinkServiceUntapped);

void BM_LinkServiceTapped(benchmark::State& state) {
  // Same pipeline with the production instrumentation attached: a StatsHub
  // arrival tap and a counting departure tap. The delta against the
  // untapped run is the whole observability bill.
  for (auto _ : state) {
    Simulator sim(1);
    sim.reserve_events(64);
    StatsHub hub(ms(10), sec(2));
    long long departures = 0;
    auto* sink = sim.make<NullSink>();
    auto* link = sim.make<Link>(sim, "l", mbps(10), ms(5),
                                std::make_unique<DropTailQueue>(64), sink);
    link->add_arrival_tap([&sim, &hub](const Packet& pkt) {
      hub.on_arrival(sim.now(), pkt);
    });
    link->add_departure_tap([&departures](const Packet&) { ++departures; });
    run_link_pipeline(*link, sim, 1000);
    benchmark::DoNotOptimize(hub.incoming_bins_until(sec(1)));
    benchmark::DoNotOptimize(departures);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
  state.SetLabel("items = packets offered");
}
BENCHMARK(BM_LinkServiceTapped);

void BM_StatsHubArrival(benchmark::State& state) {
  // The tap body alone: bin-index computation plus the batched accumulate,
  // with a bin roll every 64 packets.
  StatsHub hub(ms(10), sec(1000));
  const Packet pkt = attack_packet();
  double now = 0.0;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      hub.on_arrival(now, pkt);
      now += 0.00015625;  // 64 packets per 10 ms bin
    }
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_StatsHubArrival);

void BM_DropTailRingPath(benchmark::State& state) {
  // Queue discipline over the ring, via the virtual interface the link
  // uses: enqueue to capacity, drain through dequeue_nonempty.
  DropTailQueue queue(256);
  QueueDiscipline& q = queue;
  const Packet pkt = attack_packet();
  for (auto _ : state) {
    for (int i = 0; i < 128; ++i) q.enqueue(pkt);
    while (q.length() > 0) benchmark::DoNotOptimize(q.dequeue_nonempty());
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_DropTailRingPath);

}  // namespace
}  // namespace pdos

BENCHMARK_MAIN();
