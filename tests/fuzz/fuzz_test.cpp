// Randomized property tests: invariants that must survive arbitrary
// operation sequences, seeds, and loss processes.
#include <gtest/gtest.h>

#include <vector>

#include "core/experiment.hpp"
#include "net/droptail.hpp"
#include "net/link.hpp"
#include "net/red.hpp"
#include "sim/simulator.hpp"
#include "tcp/tcp_receiver.hpp"
#include "tcp/tcp_sender.hpp"
#include "util/rng.hpp"

namespace pdos {
namespace {

// ---------- scheduler ----------

class SchedulerFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedulerFuzz, RandomScheduleCancelRunKeepsInvariants) {
  Rng rng(GetParam());
  Scheduler sched;
  std::vector<EventId> live;
  std::int64_t expected_fires = 0;
  std::int64_t fired = 0;

  for (int op = 0; op < 2000; ++op) {
    const double dice = rng.uniform();
    if (dice < 0.55) {
      live.push_back(
          sched.schedule(rng.uniform(0.0, 100.0), [&fired] { ++fired; }));
      ++expected_fires;
    } else if (dice < 0.75 && !live.empty()) {
      const std::size_t pick =
          static_cast<std::size_t>(rng.uniform_int(0, live.size() - 1));
      if (sched.cancel(live[pick])) --expected_fires;
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    } else {
      const Time before = sched.now();
      sched.step();
      EXPECT_GE(sched.now(), before);  // time is monotone
    }
  }
  sched.run();
  EXPECT_EQ(fired, expected_fires);
  EXPECT_TRUE(sched.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerFuzz,
                         ::testing::Values(1, 7, 42, 1234, 99999));

// ---------- queues ----------

template <typename Queue>
void fuzz_queue(Queue& queue, std::uint64_t seed) {
  Rng rng(seed);
  std::int64_t accepted = 0;
  std::int64_t drained = 0;
  std::int64_t next_seq = 0;
  std::int64_t last_dequeued = -1;
  for (int op = 0; op < 20000; ++op) {
    if (rng.uniform() < 0.55) {
      Packet pkt;
      pkt.size_bytes = rng.uniform_int(40, 1500);
      pkt.type = rng.bernoulli(0.3) ? PacketType::kAttack
                                    : PacketType::kTcpData;
      pkt.seq = next_seq++;
      if (queue.enqueue(std::move(pkt))) ++accepted;
    } else {
      auto pkt = queue.dequeue();
      if (pkt) {
        ++drained;
        EXPECT_GT(pkt->seq, last_dequeued);  // FIFO order
        last_dequeued = pkt->seq;
      }
    }
    ASSERT_LE(queue.length(), queue.capacity());
  }
  // Conservation: every offered packet was accepted or counted dropped;
  // every accepted packet is either drained or still buffered.
  EXPECT_EQ(accepted + static_cast<std::int64_t>(queue.stats().dropped),
            next_seq);
  EXPECT_EQ(accepted,
            drained + static_cast<std::int64_t>(queue.length()));
  EXPECT_EQ(queue.stats().enqueued, static_cast<std::uint64_t>(accepted));
  EXPECT_EQ(queue.stats().dropped_tcp + queue.stats().dropped_attack,
            queue.stats().dropped);
}

class QueueFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QueueFuzz, DropTailConservation) {
  DropTailQueue queue(17);
  fuzz_queue(queue, GetParam());
}

TEST_P(QueueFuzz, RedConservationAndBounds) {
  RedParams params;
  params.capacity = 23;
  params.min_th = 3;
  params.max_th = 12;
  params.wq = 0.1;
  params.max_p = 0.2;
  RedQueue queue(params, Rng(GetParam() * 13 + 1));
  fuzz_queue(queue, GetParam());
  EXPECT_GE(queue.avg(), 0.0);
  EXPECT_LE(queue.avg(), static_cast<double>(params.capacity) + 1.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueueFuzz,
                         ::testing::Values(3, 17, 1001));

// ---------- link conservation ----------

TEST(LinkFuzz, OfferedEqualsDeliveredPlusDropped) {
  Simulator sim(5);
  struct Counter : PacketHandler {
    std::int64_t delivered = 0;
    std::int64_t last_seq = -1;
    bool fifo = true;
    void handle(Packet pkt) override {
      ++delivered;
      if (pkt.seq <= last_seq) fifo = false;
      last_seq = pkt.seq;
    }
  } sink;
  Link link(sim, mbps(2), ms(3), sim.make<DropTailQueue>(5),
            &sink);
  Rng rng(11);
  std::int64_t offered = 0;
  for (int burst = 0; burst < 50; ++burst) {
    sim.schedule(rng.uniform(0.0, 5.0), [&] {
      for (int i = 0; i < 8; ++i) {
        Packet pkt;
        pkt.size_bytes = rng.uniform_int(100, 1500);
        pkt.seq = offered++;
        link.handle(std::move(pkt));
      }
    });
  }
  sim.run();
  EXPECT_EQ(offered, sink.delivered +
                         static_cast<std::int64_t>(
                             link.queue().stats().dropped));
  EXPECT_TRUE(sink.fifo);
  EXPECT_GT(link.queue().stats().dropped, 0u);  // bursts overflow 5 slots
}

// ---------- TCP under random loss ----------

/// Drops data packets i.i.d. with a fixed probability.
class RandomLossGate : public PacketHandler {
 public:
  RandomLossGate(PacketHandler* next, double loss_rate, std::uint64_t seed)
      : next_(next), loss_rate_(loss_rate), rng_(seed) {}
  void handle(Packet pkt) override {
    if (pkt.type == PacketType::kTcpData && rng_.bernoulli(loss_rate_)) {
      ++dropped_;
      return;
    }
    next_->handle(std::move(pkt));
  }
  std::int64_t dropped() const { return dropped_; }

 private:
  PacketHandler* next_;
  double loss_rate_;
  Rng rng_;
  std::int64_t dropped_ = 0;
};

class TcpLossFuzz : public ::testing::TestWithParam<double> {};

TEST_P(TcpLossFuzz, SurvivesRandomLossWithExactDelivery) {
  const double loss_rate = GetParam();
  Simulator sim(21);
  struct Redirect : PacketHandler {
    PacketHandler* next = nullptr;
    void handle(Packet pkt) override { next->handle(std::move(pkt)); }
  } redirect;
  TcpReceiver receiver(sim, 0, 1, 0, &redirect, {});
  Link data_link(sim, mbps(10), ms(10),
                 sim.make<DropTailQueue>(1000), &receiver);
  RandomLossGate gate(&data_link, loss_rate, 77);
  TcpSenderConfig config;
  config.rto_min = ms(200);
  TcpSender sender(sim, 0, 0, 1, &gate, config);
  Link ack_link(sim, mbps(10), ms(10),
                sim.make<DropTailQueue>(1000), &sender);
  redirect.next = &ack_link;

  sender.start(0.0);
  sim.run_until(sec(30.0));

  // Liveness: data keeps flowing at every loss rate.
  EXPECT_GT(receiver.next_expected(), 200) << "loss=" << loss_rate;
  // Safety: goodput counts each segment exactly once.
  EXPECT_EQ(receiver.goodput_bytes(),
            receiver.next_expected() * config.mss);
  // Sanity: cannot exceed the link.
  EXPECT_LE(static_cast<double>(receiver.goodput_bytes()) * 8.0 / 30.0,
            mbps(10) * 1.01);
  // Sequence-space invariants.
  EXPECT_LE(sender.snd_una(), sender.next_seq());
  EXPECT_GE(sender.cwnd(), 1.0);
  EXPECT_GT(gate.dropped(), 0);
}

INSTANTIATE_TEST_SUITE_P(LossRates, TcpLossFuzz,
                         ::testing::Values(0.005, 0.02, 0.05, 0.10));

// ---------- end-to-end conservation ----------

TEST(ScenarioFuzz, BottleneckConservationUnderAttack) {
  for (std::uint64_t seed : {1ull, 9ull, 123ull}) {
    ScenarioConfig config = ScenarioConfig::ns2_dumbbell(8);
    config.seed = seed;
    PulseTrain train =
        PulseTrain::from_gamma(ms(60), mbps(30), 0.5, config.bottleneck);
    RunControl control;
    control.warmup = sec(2);
    control.measure = sec(6);
    const RunResult result = run_scenario(config, train, control);
    const auto& stats = result.bottleneck_queue;
    // Everything that reached the bottleneck was either enqueued or
    // dropped, and the enqueue/dequeue ledger stays consistent.
    EXPECT_EQ(stats.dropped_tcp + stats.dropped_attack, stats.dropped);
    EXPECT_GE(stats.enqueued, stats.dequeued);
    EXPECT_LE(stats.enqueued - stats.dequeued, 240u);  // <= buffer
    // Goodput cannot exceed capacity.
    EXPECT_LE(result.utilization, 1.0);
    EXPECT_GT(result.goodput_bytes, 0);
  }
}

}  // namespace
}  // namespace pdos
