// Behavioural differences between the TCP loss-recovery variants, and the
// randomized-RTO defense knob.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "net/droptail.hpp"
#include "net/link.hpp"
#include "sim/simulator.hpp"
#include "tcp/tcp_receiver.hpp"
#include "tcp/tcp_sender.hpp"

namespace pdos {
namespace {

// A second copy of the loopback harness would be noise; this one is
// deliberately minimal: fixed 10 Mbps / 10 ms links, a one-shot loss gate.
class Gate : public PacketHandler {
 public:
  explicit Gate(PacketHandler* next) : next_(next) {}
  void drop_once(std::int64_t seq) { to_drop_.insert(seq); }
  void handle(Packet pkt) override {
    if (pkt.type == PacketType::kTcpData && !pkt.retransmit &&
        to_drop_.erase(pkt.seq) > 0) {
      return;
    }
    next_->handle(std::move(pkt));
  }

 private:
  PacketHandler* next_;
  std::set<std::int64_t> to_drop_;
};

struct Pair {
  Simulator sim;
  struct Redirect : PacketHandler {
    PacketHandler* next = nullptr;
    void handle(Packet pkt) override { next->handle(std::move(pkt)); }
  } redirect;
  std::unique_ptr<TcpReceiver> receiver;
  std::unique_ptr<Link> data_link;
  std::unique_ptr<Gate> gate;
  std::unique_ptr<TcpSender> sender;
  std::unique_ptr<Link> ack_link;

  explicit Pair(TcpSenderConfig config) {
    TcpReceiverConfig rcfg;
    rcfg.mss = config.mss;
    receiver = std::make_unique<TcpReceiver>(sim, 0, 1, 0, &redirect, rcfg);
    data_link = std::make_unique<Link>(
        sim, mbps(10), ms(10), sim.make<DropTailQueue>(1000),
        receiver.get());
    gate = std::make_unique<Gate>(data_link.get());
    sender =
        std::make_unique<TcpSender>(sim, 0, 0, 1, gate.get(), config);
    ack_link = std::make_unique<Link>(
        sim, mbps(10), ms(10), sim.make<DropTailQueue>(1000),
        sender.get());
    redirect.next = ack_link.get();
  }
};

TcpSenderConfig variant_config(TcpVariant variant) {
  TcpSenderConfig config;
  config.variant = variant;
  config.initial_ssthresh = 30.0;
  return config;
}

TEST(VariantTest, NamesAreStable) {
  EXPECT_STREQ(tcp_variant_name(TcpVariant::kTahoe), "Tahoe");
  EXPECT_STREQ(tcp_variant_name(TcpVariant::kReno), "Reno");
  EXPECT_STREQ(tcp_variant_name(TcpVariant::kNewReno), "NewReno");
}

TEST(VariantTest, TahoeCollapsesToOneSegmentOnDupacks) {
  Pair pair(variant_config(TcpVariant::kTahoe));
  pair.sender->start(0.0);
  pair.sim.run_until(sec(1.0));
  ASSERT_GT(pair.sender->cwnd(), 8.0);
  pair.gate->drop_once(pair.sender->next_seq() + 2);
  // Shortly after the loss is detected, Tahoe's window is back to ~1 and
  // it is NOT in fast recovery.
  bool saw_collapse = false;
  for (int step = 0; step < 40 && !saw_collapse; ++step) {
    pair.sim.run_until(sec(1.0) + ms(25 * (step + 1)));
    if (pair.sender->cwnd() <= 2.0) saw_collapse = true;
    EXPECT_FALSE(pair.sender->in_fast_recovery());
  }
  EXPECT_TRUE(saw_collapse);
  EXPECT_EQ(pair.sender->stats().timeouts, 0u);  // dupacks, not RTO
}

TEST(VariantTest, RenoAndNewRenoKeepHalfTheWindow) {
  for (TcpVariant variant : {TcpVariant::kReno, TcpVariant::kNewReno}) {
    Pair pair(variant_config(variant));
    pair.sender->start(0.0);
    pair.sim.run_until(sec(1.0));
    const double before = pair.sender->cwnd();
    ASSERT_GT(before, 8.0);
    pair.gate->drop_once(pair.sender->next_seq() + 2);
    pair.sim.run_until(sec(2.0));
    // After recovery completes, cwnd sits near b * before, far above 1.
    EXPECT_GT(pair.sender->cwnd(), 3.0) << tcp_variant_name(variant);
    EXPECT_EQ(pair.sender->stats().timeouts, 0u);
  }
}

TEST(VariantTest, NewRenoSurvivesDoubleLossRenoOftenCannot) {
  // Two losses in one flight: NewReno repairs both via partial ACKs.
  Pair newreno(variant_config(TcpVariant::kNewReno));
  newreno.sender->start(0.0);
  newreno.sim.run_until(sec(1.0));
  const std::int64_t base = newreno.sender->next_seq();
  newreno.gate->drop_once(base + 2);
  newreno.gate->drop_once(base + 6);
  newreno.sim.run_until(sec(4.0));
  EXPECT_EQ(newreno.sender->stats().timeouts, 0u);

  // Reno exits recovery on the first partial ACK; the second hole can only
  // be repaired by another dupack round or an RTO. Either way it must make
  // progress eventually.
  Pair reno(variant_config(TcpVariant::kReno));
  reno.sender->start(0.0);
  reno.sim.run_until(sec(1.0));
  const std::int64_t rbase = reno.sender->next_seq();
  reno.gate->drop_once(rbase + 2);
  reno.gate->drop_once(rbase + 6);
  reno.sim.run_until(sec(4.0));
  EXPECT_GT(reno.receiver->next_expected(), rbase + 6);
}

TEST(VariantTest, AllVariantsSustainBulkThroughput) {
  for (TcpVariant variant :
       {TcpVariant::kTahoe, TcpVariant::kReno, TcpVariant::kNewReno}) {
    Pair pair(variant_config(variant));
    pair.sender->start(0.0);
    pair.sim.run_until(sec(4.0));
    const double goodput =
        static_cast<double>(pair.receiver->goodput_bytes()) * 8.0 / 4.0;
    EXPECT_GT(goodput, 0.8 * mbps(10)) << tcp_variant_name(variant);
  }
}

TEST(VariantTest, RtoJitterValidation) {
  TcpSenderConfig config;
  config.rto_jitter = -0.1;
  EXPECT_THROW(config.validate(), ParameterError);
  config.rto_jitter = 0.5;
  EXPECT_NO_THROW(config.validate());
}

TEST(VariantTest, RtoJitterRandomizesFirstTimeout) {
  // Black-hole the data path and record when the first retransmission
  // (i.e. the first RTO) fires.
  struct Blackhole : PacketHandler {
    Simulator* sim = nullptr;
    Time first_retransmit = -1.0;
    void handle(Packet pkt) override {
      if (pkt.retransmit && first_retransmit < 0.0) {
        first_retransmit = sim->now();
      }
    }
  };
  auto first_timeout = [](Time jitter, std::uint64_t seed) {
    Simulator sim(seed);
    TcpSenderConfig config;
    config.rto_min = sec(1.0);
    config.initial_rto = sec(1.0);
    config.rto_jitter = jitter;
    Blackhole hole;
    hole.sim = &sim;
    TcpSender sender(sim, 7, 0, 1, &hole, config);
    sender.start(0.0);
    sim.run_until(sec(10.0));
    return hole.first_retransmit;
  };
  // Without jitter, the first RTO fires at exactly initial_rto.
  EXPECT_NEAR(first_timeout(0.0, 1), 1.0, 1e-9);
  // With jitter it is uniform in [1 s, 5 s] and varies with the seed.
  const Time a = first_timeout(sec(4.0), 1);
  const Time b = first_timeout(sec(4.0), 2);
  EXPECT_GE(a, 1.0);
  EXPECT_LE(a, 5.0 + 1e-9);
  EXPECT_GE(b, 1.0);
  EXPECT_LE(b, 5.0 + 1e-9);
  EXPECT_NE(a, b);  // desynchronized across victims
}

}  // namespace
}  // namespace pdos
