#include "net/link.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "net/droptail.hpp"
#include "net/node.hpp"
#include "sim/simulator.hpp"
#include "util/assert.hpp"

namespace pdos {
namespace {

/// Records every packet it receives together with the arrival time.
class RecordingSink : public PacketHandler {
 public:
  explicit RecordingSink(Simulator& sim) : sim_(sim) {}
  void handle(Packet pkt) override {
    times.push_back(sim_.now());
    packets.push_back(std::move(pkt));
  }
  std::vector<Time> times;
  std::vector<Packet> packets;

 private:
  Simulator& sim_;
};

Packet make_packet(Bytes size, std::int64_t seq = 0) {
  Packet pkt;
  pkt.size_bytes = size;
  pkt.seq = seq;
  return pkt;
}

TEST(LinkTest, DeliversAfterSerializationPlusPropagation) {
  Simulator sim;
  RecordingSink sink(sim);
  // 1000 bytes at 8 kbps -> 1 s serialization; +0.5 s propagation.
  Link link(sim, kbps(8), sec(0.5), sim.make<DropTailQueue>(10),
            &sink);
  link.handle(make_packet(1000));
  sim.run();
  ASSERT_EQ(sink.times.size(), 1u);
  EXPECT_NEAR(sink.times[0], 1.5, 1e-9);
}

TEST(LinkTest, BackToBackPacketsSerializeSequentially) {
  Simulator sim;
  RecordingSink sink(sim);
  Link link(sim, kbps(8), 0.0, sim.make<DropTailQueue>(10),
            &sink);
  link.handle(make_packet(1000, 0));
  link.handle(make_packet(1000, 1));
  link.handle(make_packet(1000, 2));
  sim.run();
  ASSERT_EQ(sink.times.size(), 3u);
  EXPECT_NEAR(sink.times[0], 1.0, 1e-9);
  EXPECT_NEAR(sink.times[1], 2.0, 1e-9);
  EXPECT_NEAR(sink.times[2], 3.0, 1e-9);
  EXPECT_EQ(sink.packets[0].seq, 0);
  EXPECT_EQ(sink.packets[2].seq, 2);
}

TEST(LinkTest, PropagationIsPipelined) {
  // With a long propagation delay, the second packet must not wait for the
  // first packet's propagation, only for its serialization.
  Simulator sim;
  RecordingSink sink(sim);
  Link link(sim, kbps(8), sec(10), sim.make<DropTailQueue>(10),
            &sink);
  link.handle(make_packet(1000, 0));
  link.handle(make_packet(1000, 1));
  sim.run();
  ASSERT_EQ(sink.times.size(), 2u);
  EXPECT_NEAR(sink.times[0], 11.0, 1e-9);
  EXPECT_NEAR(sink.times[1], 12.0, 1e-9);  // not 22.0
}

TEST(LinkTest, QueueOverflowDrops) {
  Simulator sim;
  RecordingSink sink(sim);
  Link link(sim, kbps(8), 0.0, sim.make<DropTailQueue>(2),
            &sink);
  // First packet goes into service immediately; two buffer slots remain.
  for (int i = 0; i < 5; ++i) link.handle(make_packet(1000, i));
  sim.run();
  EXPECT_EQ(sink.packets.size(), 3u);
  EXPECT_EQ(link.queue().stats().dropped, 2u);
}

TEST(LinkTest, ArrivalTapSeesDroppedPacketsToo) {
  Simulator sim;
  RecordingSink sink(sim);
  Link link(sim, kbps(8), 0.0, sim.make<DropTailQueue>(1),
            &sink);
  int arrivals = 0;
  link.add_arrival_tap([&](const Packet&) { ++arrivals; });
  for (int i = 0; i < 4; ++i) link.handle(make_packet(1000, i));
  sim.run();
  EXPECT_EQ(arrivals, 4);
  EXPECT_EQ(sink.packets.size(), 2u);
}

TEST(LinkTest, IdleLinkResumesAfterDrain) {
  Simulator sim;
  RecordingSink sink(sim);
  Link link(sim, kbps(8), 0.0, sim.make<DropTailQueue>(10),
            &sink);
  link.handle(make_packet(1000));
  sim.run();
  EXPECT_FALSE(link.busy());
  link.handle(make_packet(1000));
  sim.run();
  EXPECT_EQ(sink.packets.size(), 2u);
  EXPECT_NEAR(sink.times[1], sink.times[0] + 1.0, 1e-9);
}

TEST(LinkTest, ThroughputMatchesRate) {
  // Saturate a 1 Mbps link for 1 second: ~125 kB should get through.
  Simulator sim;
  RecordingSink sink(sim);
  Link link(sim, mbps(1), 0.0, sim.make<DropTailQueue>(10000),
            &sink);
  const Bytes pkt_size = 1250;  // 10 ms each
  for (int i = 0; i < 100; ++i) link.handle(make_packet(pkt_size, i));
  // 100 packets * 10 ms = 1 s of service; allow fp accumulation slack.
  sim.run_until(sec(1.0) + us(1));
  EXPECT_EQ(sink.packets.size(), 100u);
}

TEST(LinkTest, InvalidConstructionThrows) {
  Simulator sim;
  RecordingSink sink(sim);
  auto make_link = [&](BitRate rate, Time delay, bool with_queue,
                       PacketHandler* down) {
    Link link(sim, rate, delay,
              with_queue ? sim.make<DropTailQueue>(1) : nullptr,
              down);
  };
  EXPECT_THROW(make_link(0.0, 0.0, true, &sink), ParameterError);
  EXPECT_THROW(make_link(kbps(8), -1.0, true, &sink), ParameterError);
  EXPECT_THROW(make_link(kbps(8), 0.0, false, &sink), ParameterError);
  EXPECT_THROW(make_link(kbps(8), 0.0, true, nullptr), ParameterError);
}

// ---- Express lane and event fusion (DESIGN.md §11) ----

TEST(LinkTest, ExpressLaneMatchesFullLinkDeliveryTimes) {
  // The express lane must deliver every packet at exactly the instant an
  // uncongested full link would: serialization chains FIFO off the previous
  // completion, then constant propagation.
  Simulator sim_full;
  RecordingSink full_sink(sim_full);
  Link full(sim_full, kbps(8), sec(0.5),
            sim_full.make<DropTailQueue>(1000), &full_sink);

  Simulator sim_express;
  RecordingSink express_sink(sim_express);
  Link express(sim_express, kbps(8), sec(0.5), &express_sink);
  EXPECT_TRUE(express.express());

  // A burst (queues behind the serializer), a gap, then a lone packet.
  for (auto pair :
       {std::pair<Simulator*, Link*>{&sim_full, &full},
        std::pair<Simulator*, Link*>{&sim_express, &express}}) {
    Simulator& sim = *pair.first;
    Link& link = *pair.second;
    sim.schedule_at(0.0, [&link] {
      link.handle(make_packet(1000, 0));
      link.handle(make_packet(1000, 1));
      link.handle(make_packet(500, 2));
    });
    sim.schedule_at(10.0, [&link] { link.handle(make_packet(1000, 3)); });
    sim.run();
  }

  ASSERT_EQ(full_sink.times.size(), 4u);
  ASSERT_EQ(express_sink.times.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(express_sink.times[i], full_sink.times[i]) << "packet " << i;
    EXPECT_EQ(express_sink.packets[i].seq, full_sink.packets[i].seq);
  }
  // And it must do so with fewer scheduler events: one delivery event per
  // pipeline burst, zero service events.
  EXPECT_LT(sim_express.scheduler().events_executed(),
            sim_full.scheduler().events_executed());
}

TEST(LinkTest, ExpressLaneRejectsTapsAndQueueAccess) {
  Simulator sim;
  RecordingSink sink(sim);
  Link express(sim, kbps(8), sec(0.5), &sink);
  EXPECT_THROW(express.add_arrival_tap([](const Packet&) {}), ParameterError);
  EXPECT_THROW(express.queue(), ParameterError);
}

TEST(LinkTest, FusedLinkMatchesFullLinkTimingsAndDrops) {
  // Fusion collapses idle-link serves into zero service events but must
  // keep every delivery time and every queue decision identical — the
  // packets pass through the same enqueue/dequeue sequence either way.
  auto drive = [](bool fused, std::vector<Time>& times,
                  std::uint64_t& dropped, std::uint64_t& events) {
    Simulator sim;
    RecordingSink sink(sim);
    Link link(sim, kbps(8), sec(0.25),
              sim.make<DropTailQueue>(2), &sink);
    link.set_fused(fused);
    // Saturating burst (forces drops + pump events), then idle singles
    // (the fused zero-service-event case).
    sim.schedule_at(0.0, [&link] {
      for (int i = 0; i < 6; ++i) link.handle(make_packet(1000, i));
    });
    for (int i = 0; i < 4; ++i) {
      sim.schedule_at(20.0 + 2.0 * i,
                      [&link, i] { link.handle(make_packet(1000, 100 + i)); });
    }
    sim.run();
    times = sink.times;
    dropped = link.queue().stats().dropped;
    events = sim.scheduler().events_executed();
  };

  std::vector<Time> full_times, fused_times;
  std::uint64_t full_dropped = 0, fused_dropped = 0;
  std::uint64_t full_events = 0, fused_events = 0;
  drive(false, full_times, full_dropped, full_events);
  drive(true, fused_times, fused_dropped, fused_events);

  EXPECT_EQ(fused_times, full_times);
  EXPECT_EQ(fused_dropped, full_dropped);
  EXPECT_LT(fused_events, full_events);
}

TEST(LinkTest, SettleReplaysLazyBacklogForSamplers) {
  // A lazy fused link owns no boundary event, so its queue state is stale
  // between packet visits; settle() replays the overdue services so a
  // sampler reads the exact occupancy an eager link would report.
  Simulator sim;
  RecordingSink sink(sim);
  Link link(sim, kbps(8), sec(0.5), sim.make<DropTailQueue>(10),
            &sink);
  link.set_fused(true);
  // Five 1 s services back to back: boundaries at 1, 2, 3, 4 s.
  sim.schedule_at(0.0, [&link] {
    for (int i = 0; i < 5; ++i) link.handle(make_packet(1000, i));
  });
  std::size_t sampled = 99;
  sim.schedule_at(2.25, [&link, &sampled] {
    link.settle();
    sampled = link.queue().length();
  });
  sim.run();
  // By 2.25 s the t=0, 1 s, and 2 s services have started, leaving two
  // packets queued — exactly what the full path's sampler would see.
  EXPECT_EQ(sampled, 2u);
  ASSERT_EQ(sink.times.size(), 5u);
  EXPECT_NEAR(sink.times.back(), 5.5, 1e-9);
}

TEST(LinkTest, ChainHandoffMatchesTwoHopExpressTimings) {
  // bottleneck_rev -> routerS -> per-flow reverse lane, in miniature: the
  // chained variant must deliver every packet at the same instant as the
  // event-driven two-hop reference while executing fewer events.
  auto drive = [](bool chained, std::vector<Time>& times,
                  std::uint64_t& events) {
    Simulator sim;
    RecordingSink sink(sim);
    Node router(7);
    Link second(sim, kbps(16), sec(0.25),
                static_cast<PacketHandler*>(&sink));
    router.add_route(5, &second);
    Link first(sim, kbps(8), sec(0.5),
               static_cast<PacketHandler*>(&router));
    if (chained) first.chain_via(&router);
    sim.schedule_at(0.0, [&first] {
      for (int i = 0; i < 3; ++i) {
        Packet pkt = make_packet(1000, i);
        pkt.dst = 5;
        first.handle(std::move(pkt));
      }
    });
    sim.run();
    times = sink.times;
    events = sim.scheduler().events_executed();
  };

  std::vector<Time> ref_times, chained_times;
  std::uint64_t ref_events = 0, chained_events = 0;
  drive(false, ref_times, ref_events);
  drive(true, chained_times, chained_events);

  ASSERT_EQ(ref_times.size(), 3u);
  EXPECT_EQ(chained_times, ref_times);
  // The first hop stops owning delivery events entirely.
  EXPECT_LT(chained_events, ref_events);
}

TEST(LinkTest, ChainHandoffRequiresExpressEndpoints) {
  Simulator sim;
  RecordingSink sink(sim);
  Node router(7);
  Link queued(sim, kbps(8), sec(0.5),
              sim.make<DropTailQueue>(10), &sink);
  EXPECT_THROW(queued.chain_via(&router), ParameterError);

  Link express(sim, kbps(8), sec(0.5),
               static_cast<PacketHandler*>(&router));
  EXPECT_THROW(express.chain_via(nullptr), ParameterError);

  // Chaining toward a non-express hop is rejected when the first packet
  // resolves the route.
  router.add_route(5, &queued);
  express.chain_via(&router);
  Packet pkt = make_packet(1000, 0);
  pkt.dst = 5;
  EXPECT_THROW(express.handle(std::move(pkt)), ParameterError);
}

}  // namespace
}  // namespace pdos
