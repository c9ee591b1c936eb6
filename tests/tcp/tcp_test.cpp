#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "net/droptail.hpp"
#include "net/link.hpp"
#include "sim/simulator.hpp"
#include "tcp/tcp_receiver.hpp"
#include "tcp/tcp_sender.hpp"
#include "util/assert.hpp"

namespace pdos {
namespace {

/// Drops selected data segments exactly once, forwarding everything else.
class LossGate : public PacketHandler {
 public:
  explicit LossGate(PacketHandler* next) : next_(next) {}
  void drop_once(std::int64_t seq) { to_drop_.insert(seq); }
  void set_blackhole(bool on) { blackhole_ = on; }
  void handle(Packet pkt) override {
    if (blackhole_ && pkt.type == PacketType::kTcpData) return;
    if (pkt.type == PacketType::kTcpData) {
      auto it = to_drop_.find(pkt.seq);
      if (it != to_drop_.end() && !pkt.retransmit) {
        to_drop_.erase(it);
        ++dropped_;
        return;
      }
    }
    next_->handle(std::move(pkt));
  }
  int dropped() const { return dropped_; }

 private:
  PacketHandler* next_;
  std::set<std::int64_t> to_drop_;
  bool blackhole_ = false;
  int dropped_ = 0;
};

/// A minimal sender <-> receiver loop over two symmetric links, with a loss
/// gate on the data path.
struct Loopback {
  Simulator sim;
  std::unique_ptr<TcpReceiver> receiver;
  std::unique_ptr<TcpSender> sender;
  std::unique_ptr<Link> data_link;
  std::unique_ptr<Link> ack_link;
  std::unique_ptr<LossGate> gate;

  explicit Loopback(TcpSenderConfig config = {}, BitRate rate = mbps(10),
                    Time delay = ms(10))
      : sender_config(config), rate(rate), delay(delay) {
    receiver_config.delack_factor = config.aimd.d;
    receiver_config.mss = config.mss;
  }

  TcpSenderConfig sender_config;
  TcpReceiverConfig receiver_config;
  BitRate rate;
  Time delay;

  void build() {
    // sender -> gate -> data_link -> receiver -> ack_sink -> ack_link ->
    // sender; the Redirect breaks the construction-order cycle.
    receiver = std::make_unique<TcpReceiver>(sim, 0, 1, 0, &ack_sink,
                                             receiver_config);
    data_link = std::make_unique<Link>(sim, rate, delay,
                                       sim.make<DropTailQueue>(1000),
                                       receiver.get());
    gate = std::make_unique<LossGate>(data_link.get());
    sender = std::make_unique<TcpSender>(sim, 0, 0, 1, gate.get(),
                                         sender_config);
    ack_link = std::make_unique<Link>(sim, rate, delay,
                                      sim.make<DropTailQueue>(1000),
                                      sender.get());
    ack_sink.next = ack_link.get();
  }

  struct Redirect : PacketHandler {
    PacketHandler* next = nullptr;
    void handle(Packet pkt) override { next->handle(std::move(pkt)); }
  };
  Redirect ack_sink;
};

TEST(TcpTest, SlowStartGrowsWindowExponentially) {
  Loopback loop;
  loop.build();
  loop.sender->start(0.0);
  // RTT ~ 21 ms; after 5 RTTs of slow start cwnd should be >= 16.
  loop.sim.run_until(ms(110));
  EXPECT_GE(loop.sender->cwnd(), 16.0);
  EXPECT_EQ(loop.sender->stats().timeouts, 0u);
  EXPECT_EQ(loop.sender->stats().fast_recoveries, 0u);
}

TEST(TcpTest, BulkTransferSaturatesLink) {
  Loopback loop;
  loop.build();
  loop.sender->start(0.0);
  loop.sim.run_until(sec(5.0));
  const double goodput =
      static_cast<double>(loop.receiver->goodput_bytes()) * 8.0 / 5.0;
  // Payload goodput should reach ~ mss/(mss+hdr) of the 10 Mbps link.
  EXPECT_GT(goodput, 0.85 * mbps(10));
  EXPECT_EQ(loop.sender->stats().timeouts, 0u);
}

TEST(TcpTest, InOrderDeliveryCountsUniqueGoodput) {
  Loopback loop;
  loop.build();
  loop.sender->start(0.0);
  loop.sim.run_until(sec(1.0));
  EXPECT_EQ(loop.receiver->goodput_bytes(),
            loop.receiver->next_expected() *
                loop.sender->config().mss);
}

TEST(TcpTest, TripleDupackTriggersFastRetransmitNotTimeout) {
  Loopback loop;
  loop.build();
  loop.sender->start(0.0);
  loop.sim.run_until(ms(200));
  ASSERT_EQ(loop.sender->stats().fast_recoveries, 0u);
  loop.gate->drop_once(loop.sender->next_seq() + 5);
  loop.sim.run_until(ms(600));
  EXPECT_EQ(loop.gate->dropped(), 1);
  EXPECT_GE(loop.sender->stats().fast_recoveries, 1u);
  EXPECT_EQ(loop.sender->stats().timeouts, 0u);
  // The receiver eventually got everything.
  EXPECT_GT(loop.receiver->next_expected(), 100);
}

TEST(TcpTest, MultiplicativeDecreaseUsesAimdB) {
  for (double b : {0.5, 0.8}) {
    TcpSenderConfig config;
    config.aimd.b = b;
    config.initial_ssthresh = 30.0;  // move to congestion avoidance early
    Loopback loop(config);
    loop.build();
    loop.sender->start(0.0);
    loop.sim.run_until(sec(1.0));
    const double w_before = loop.sender->cwnd();
    ASSERT_GT(w_before, 10.0);
    loop.gate->drop_once(loop.sender->next_seq() + 2);
    // Capture ssthresh right after the recovery starts.
    loop.sim.run_until(sec(2.0));
    // After recovery completes, cwnd restarts near b * w_before.
    EXPECT_GE(loop.sender->stats().fast_recoveries, 1u);
    EXPECT_NEAR(loop.sender->ssthresh(), b * w_before,
                0.35 * b * w_before + 3.0);
  }
}

TEST(TcpTest, BlackholeCausesTimeoutAndBackoff) {
  Loopback loop;
  loop.build();
  loop.sender->start(0.0);
  loop.sim.run_until(ms(300));
  loop.gate->set_blackhole(true);
  loop.sim.run_until(sec(10));
  EXPECT_GE(loop.sender->stats().timeouts, 2u);
  EXPECT_LE(loop.sender->cwnd(), 2.0);
}

TEST(TcpTest, RecoveryAfterBlackholeResumes) {
  Loopback loop;
  loop.build();
  loop.sender->start(0.0);
  loop.sim.run_until(ms(300));
  loop.gate->set_blackhole(true);
  loop.sim.run_until(sec(4));
  const Bytes stalled = loop.receiver->goodput_bytes();
  loop.gate->set_blackhole(false);
  loop.sim.run_until(sec(8));
  EXPECT_GT(loop.receiver->goodput_bytes(), stalled + 100 * 1000);
}

TEST(TcpTest, RtoRespectsConfiguredMinimum) {
  TcpSenderConfig config;
  config.rto_min = sec(1.0);
  Loopback loop(config);
  loop.build();
  loop.sender->start(0.0);
  loop.sim.run_until(sec(1.0));  // srtt ~ 21 ms, far below rto_min
  EXPECT_GE(loop.sender->rto(), sec(1.0));
}

TEST(TcpTest, SrttConvergesToPathRtt) {
  Loopback loop;
  loop.build();
  loop.sender->start(0.0);
  loop.sim.run_until(sec(2.0));
  // Path RTT: 2 * 10 ms propagation + serialization; queueing adds a bit.
  EXPECT_GT(loop.sender->srtt(), ms(18));
  EXPECT_LT(loop.sender->srtt(), ms(120));
}

TEST(TcpTest, DelayedAckHalvesAckRate) {
  TcpSenderConfig config;
  config.aimd = AimdParams::new_reno_delack();  // d = 2
  Loopback loop(config);
  loop.build();
  loop.sender->start(0.0);
  loop.sim.run_until(sec(3.0));
  const auto& rstats = loop.receiver->stats();
  ASSERT_GT(rstats.segments_received, 200u);
  const double acks_per_segment =
      static_cast<double>(rstats.acks_sent) /
      static_cast<double>(rstats.segments_received);
  EXPECT_LT(acks_per_segment, 0.65);
  EXPECT_GT(acks_per_segment, 0.4);
}

TEST(TcpTest, DelayedAckTimerFlushesTrailingSegment) {
  // Send exactly one segment's worth of window: the delack timer (not a
  // second segment) must produce the ACK.
  TcpSenderConfig config;
  config.aimd = AimdParams::new_reno_delack();
  config.initial_cwnd = 1.0;
  config.max_cwnd = 1.0;  // forever one packet in flight
  Loopback loop(config);
  loop.build();
  loop.sender->start(0.0);
  loop.sim.run_until(sec(1.0));
  EXPECT_GT(loop.receiver->stats().acks_sent, 0u);
  EXPECT_GT(loop.receiver->next_expected(), 1);
  EXPECT_EQ(loop.sender->stats().timeouts, 0u);
}

TEST(TcpTest, OutOfOrderSegmentsAreBufferedNotLost) {
  Loopback loop;
  loop.build();
  loop.sender->start(0.0);
  loop.sim.run_until(ms(200));
  loop.gate->drop_once(loop.sender->next_seq() + 1);
  loop.sim.run_until(sec(1.0));
  EXPECT_GT(loop.receiver->stats().out_of_order, 0u);
  // No byte is delivered twice.
  EXPECT_EQ(loop.receiver->goodput_bytes(),
            loop.receiver->next_expected() * loop.sender->config().mss);
}

TEST(TcpTest, NewRenoHandlesTwoLossesInOneWindow) {
  Loopback loop;
  loop.build();
  loop.sender->start(0.0);
  loop.sim.run_until(ms(400));
  const std::int64_t base = loop.sender->next_seq();
  loop.gate->drop_once(base + 2);
  loop.gate->drop_once(base + 6);
  loop.sim.run_until(sec(3.0));
  EXPECT_EQ(loop.gate->dropped(), 2);
  // NewReno's partial-ACK retransmission repairs both holes without RTO.
  EXPECT_EQ(loop.sender->stats().timeouts, 0u);
  EXPECT_GE(loop.sender->stats().fast_recoveries, 1u);
  EXPECT_GT(loop.receiver->next_expected(), base + 6);
}

TEST(TcpTest, CwndTracerObservesDecrease) {
  Loopback loop;
  loop.build();
  std::vector<double> cwnds;
  loop.sender->set_cwnd_tracer(
      [&](Time, double w) { cwnds.push_back(w); });
  loop.sender->start(0.0);
  loop.sim.run_until(ms(400));
  loop.gate->drop_once(loop.sender->next_seq() + 2);
  loop.sim.run_until(sec(1.0));
  ASSERT_FALSE(cwnds.empty());
  bool saw_decrease = false;
  for (std::size_t i = 1; i < cwnds.size(); ++i) {
    if (cwnds[i] < cwnds[i - 1] - 1.0) saw_decrease = true;
  }
  EXPECT_TRUE(saw_decrease);
}

TEST(TcpTest, SenderConfigValidation) {
  Loopback loop;
  loop.build();
  TcpSenderConfig bad;
  bad.mss = 0;
  EXPECT_THROW(TcpSender(loop.sim, 1, 0, 1, loop.gate.get(), bad),
               ParameterError);
  bad = TcpSenderConfig{};
  bad.aimd.b = 1.5;
  EXPECT_THROW(TcpSender(loop.sim, 1, 0, 1, loop.gate.get(), bad),
               ParameterError);
  bad = TcpSenderConfig{};
  bad.rto_min = sec(100);  // > TcpSenderConfig::kRtoMax
  EXPECT_THROW(TcpSender(loop.sim, 1, 0, 1, loop.gate.get(), bad),
               ParameterError);
}

TEST(TcpTest, StartingTwiceIsAnError) {
  Loopback loop;
  loop.build();
  loop.sender->start(0.0);
  EXPECT_THROW(loop.sender->start(1.0), InvariantError);
}

TEST(TcpTest, AdditiveIncreaseRateMatchesAimdA) {
  // In congestion avoidance with a = 2, cwnd should grow ~2 per RTT.
  TcpSenderConfig config;
  config.aimd.a = 2.0;
  config.initial_ssthresh = 4.0;  // enter CA almost immediately
  Loopback loop(config, mbps(50), ms(50));
  loop.build();
  loop.sender->start(0.0);
  loop.sim.run_until(ms(150));
  const double w0 = loop.sender->cwnd();
  loop.sim.run_until(ms(150 + 5 * 101));  // ~5 RTTs later (RTT ~ 101 ms)
  const double w1 = loop.sender->cwnd();
  EXPECT_NEAR(w1 - w0, 2.0 * 5.0, 4.0);
}

}  // namespace
}  // namespace pdos
