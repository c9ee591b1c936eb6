#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "attack/pulse.hpp"
#include "attack/shrew.hpp"
#include "net/droptail.hpp"
#include "net/link.hpp"
#include "sim/simulator.hpp"
#include "util/assert.hpp"

namespace pdos {
namespace {

class CountingSink : public PacketHandler {
 public:
  explicit CountingSink(Simulator& sim) : sim_(sim) {}
  void handle(Packet pkt) override {
    times.push_back(sim_.now());
    bytes += pkt.size_bytes;
    EXPECT_TRUE(pkt.is_attack());
  }
  std::vector<Time> times;
  Bytes bytes = 0;

 private:
  Simulator& sim_;
};

TEST(PulseTrainTest, DerivedQuantities) {
  PulseTrain train;
  train.textent = ms(50);
  train.tspace = ms(1950);
  train.rattack = mbps(100);
  EXPECT_DOUBLE_EQ(train.period(), 2.0);
  EXPECT_DOUBLE_EQ(train.mu(), 39.0);
  EXPECT_DOUBLE_EQ(train.average_rate(), mbps(2.5));
  EXPECT_DOUBLE_EQ(train.gamma(mbps(15)), 2.5 / 15.0);
}

TEST(PulseTrainTest, FromGammaInvertsGamma) {
  for (double gamma : {0.1, 0.3, 0.5, 0.9}) {
    const PulseTrain train =
        PulseTrain::from_gamma(ms(50), mbps(25), gamma, mbps(15));
    EXPECT_NEAR(train.gamma(mbps(15)), gamma, 1e-12);
    EXPECT_DOUBLE_EQ(train.textent, ms(50));
    EXPECT_DOUBLE_EQ(train.rattack, mbps(25));
  }
}

TEST(PulseTrainTest, FromGammaRejectsInfeasibleGamma) {
  // gamma > C_attack = 10/15 would need negative spacing.
  EXPECT_THROW(PulseTrain::from_gamma(ms(50), mbps(10), 0.9, mbps(15)),
               ParameterError);
  EXPECT_THROW(PulseTrain::from_gamma(ms(50), mbps(25), 0.0, mbps(15)),
               ParameterError);
  EXPECT_THROW(PulseTrain::from_gamma(ms(50), mbps(25), 1.5, mbps(15)),
               ParameterError);
}

TEST(PulseTrainTest, FloodingHasUnitDutyCycle) {
  const PulseTrain flood = PulseTrain::flooding(mbps(20));
  EXPECT_DOUBLE_EQ(flood.tspace, 0.0);
  EXPECT_DOUBLE_EQ(flood.average_rate(), mbps(20));
  EXPECT_DOUBLE_EQ(flood.mu(), 0.0);
}

TEST(PulseTrainTest, ValidationRejectsNonsense) {
  PulseTrain train;
  train.textent = 0.0;
  EXPECT_THROW(train.validate(), ParameterError);
  train = PulseTrain{};
  train.tspace = -1.0;
  EXPECT_THROW(train.validate(), ParameterError);
  train = PulseTrain{};
  train.n = 0;
  EXPECT_THROW(train.validate(), ParameterError);
  train = PulseTrain{};
  train.packet_bytes = 0;
  EXPECT_THROW(train.validate(), ParameterError);
}

TEST(PulseAttackerTest, EmitsExpectedPacketCountPerPulse) {
  Simulator sim;
  CountingSink sink(sim);
  PulseTrain train;
  train.textent = ms(10);
  train.tspace = ms(90);
  train.rattack = mbps(8);  // 8 Mbps, 1000-byte packets -> 1 ms spacing
  train.packet_bytes = 1000;
  train.n = 3;
  PulseAttacker attacker(sim, train, 100, 200, &sink);
  attacker.start(0.0);
  sim.run();
  EXPECT_EQ(attacker.stats().pulses_started, 3);
  // 10 packets fit in each 10 ms pulse at 1 ms spacing.
  EXPECT_EQ(attacker.stats().packets_sent, 30);
  EXPECT_EQ(sink.bytes, 30 * 1000);
}

TEST(PulseAttackerTest, PulsesAreSpacedByPeriod) {
  Simulator sim;
  CountingSink sink(sim);
  PulseTrain train;
  train.textent = ms(10);
  train.tspace = ms(90);
  train.rattack = mbps(8);
  train.packet_bytes = 1000;
  train.n = 5;
  PulseAttacker attacker(sim, train, 100, 200, &sink);
  attacker.start(sec(1.0));
  sim.run();
  ASSERT_FALSE(sink.times.empty());
  // First packet of each pulse lands at 1.0, 1.1, 1.2, ...
  for (int p = 0; p < 5; ++p) {
    const Time expected = 1.0 + 0.1 * p;
    bool found = false;
    for (Time t : sink.times) {
      if (std::abs(t - expected) < 1e-9) found = true;
    }
    EXPECT_TRUE(found) << "missing pulse start at " << expected;
  }
}

TEST(PulseAttackerTest, AverageRateMatchesGammaOverLongRun) {
  Simulator sim;
  CountingSink sink(sim);
  PulseTrain train;
  train.textent = ms(50);
  train.tspace = ms(150);
  train.rattack = mbps(20);
  train.packet_bytes = 1000;
  train.n = 50;  // 50 periods of 200 ms -> ~10 s
  PulseAttacker attacker(sim, train, 100, 200, &sink);
  attacker.start(0.0);
  sim.run();
  const Time span = train.period() * static_cast<double>(train.n);
  const BitRate measured = static_cast<double>(sink.bytes) * 8.0 / span;
  EXPECT_NEAR(measured / train.average_rate(), 1.0, 0.05);
}

TEST(PulseAttackerTest, StopHaltsFuturePulses) {
  Simulator sim;
  CountingSink sink(sim);
  PulseTrain train;
  train.textent = ms(10);
  train.tspace = ms(90);
  train.rattack = mbps(8);
  train.packet_bytes = 1000;
  PulseAttacker attacker(sim, train, 100, 200, &sink);
  attacker.start(0.0);
  sim.schedule(ms(250), [&] { attacker.stop(); });
  sim.run_until(sec(2.0));
  EXPECT_EQ(attacker.stats().pulses_started, 3);  // t = 0, 0.1, 0.2
}

TEST(PulseAttackerTest, SinglePacketPulseWhenRateTiny) {
  Simulator sim;
  CountingSink sink(sim);
  PulseTrain train;
  train.textent = ms(1);
  train.tspace = ms(99);
  train.rattack = kbps(64);  // spacing longer than the pulse itself
  train.packet_bytes = 1000;
  train.n = 2;
  PulseAttacker attacker(sim, train, 100, 200, &sink);
  attacker.start(0.0);
  sim.run();
  EXPECT_EQ(attacker.stats().packets_sent, 2);  // one per pulse, minimum
}

/// One attacker run into a CountingSink: through a queued access link (the
/// full path), or with the attacker walking that hop itself (the fast path).
struct AccessRun {
  std::vector<Time> arrivals;
  std::int64_t packets_sent = 0;
  std::uint64_t events = 0;
};

AccessRun run_through_access(const PulseTrain& train, AccessHop hop,
                             bool walk_hop) {
  Simulator sim;
  CountingSink sink(sim);
  Link access(sim, hop.rate, hop.delay, sim.make<DropTailQueue>(1000), &sink,
              train.packet_bytes);
  PacketHandler* out = walk_hop ? static_cast<PacketHandler*>(&sink) : &access;
  PulseAttacker attacker(
      sim, train, 100, 200, out, -1000,
      walk_hop ? std::optional<AccessHop>(hop) : std::nullopt);
  attacker.start(ms(3));
  sim.run();
  return {sink.times, attacker.stats().packets_sent,
          sim.scheduler().events_executed()};
}

TEST(PulseAttackerTest, FastArrivalsMatchQueuedAccessLink) {
  // The fast path builds no access link for an attacker: each packet
  // reaches the next hop at the instant the queued link would deliver it,
  // bit for bit, whether the pulses are far apart or a pulse fires while
  // the previous one is still crossing the hop — and, on a hop slower than
  // the pulse, while packets wait for the wire.
  const AccessHop hop{mbps(50), ms(1)};
  PulseTrain apart = PulseTrain::from_gamma(ms(50), mbps(25), 0.3, mbps(15));
  apart.n = 4;
  PulseTrain overlapping =
      PulseTrain::from_gamma(ms(2), mbps(14), 0.9, mbps(15));
  overlapping.n = 6;
  // Back-to-back pulses with about a dozen packets still crossing the hop
  // when the next pulse fires.
  PulseTrain flooding = PulseTrain::flooding(mbps(100));
  flooding.n = 3;
  const AccessHop wide{mbps(200), ms(1)};
  ASSERT_GT(apart.tspace, hop.delay);
  ASSERT_LT(overlapping.tspace, hop.delay);
  ASSERT_LT(10.0 * transmission_time(flooding.packet_bytes, flooding.rattack),
            wide.delay);

  const AccessHop slow{mbps(12.5), ms(1)};
  for (const auto& [train, via] :
       {std::pair{apart, hop}, std::pair{overlapping, hop},
        std::pair{flooding, wide}, std::pair{apart, slow}}) {
    const AccessRun full = run_through_access(train, via, false);
    const AccessRun fast = run_through_access(train, via, true);
    const auto per_pulse = static_cast<std::int64_t>(
        std::floor(train.textent / transmission_time(train.packet_bytes,
                                                     train.rattack)));
    ASSERT_EQ(static_cast<std::int64_t>(full.arrivals.size()),
              train.n * per_pulse);
    EXPECT_EQ(fast.arrivals, full.arrivals);
    EXPECT_EQ(fast.packets_sent, full.packets_sent);
    // One event per packet plus one per pulse.
    EXPECT_EQ(fast.events,
              static_cast<std::uint64_t>(train.n * per_pulse + train.n));
  }
}

TEST(ShrewTest, PeriodsAreHarmonicsOfMinRto) {
  EXPECT_DOUBLE_EQ(shrew_period(sec(1.0), 1), 1.0);
  EXPECT_DOUBLE_EQ(shrew_period(sec(1.0), 2), 0.5);
  EXPECT_NEAR(shrew_period(sec(1.0), 3), 1.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(shrew_period(ms(200), 2), 0.1);
}

TEST(ShrewTest, PeriodListRespectsFloor) {
  const auto periods = shrew_periods(sec(1.0), 10, ms(240));
  ASSERT_EQ(periods.size(), 4u);  // 1, 0.5, 0.333, 0.25
  EXPECT_DOUBLE_EQ(periods[0], 1.0);
  EXPECT_DOUBLE_EQ(periods[3], 0.25);
}

TEST(ShrewTest, MatchingHarmonicDetection) {
  // The paper's Fig. 10 shrew points for minRTO = 1 s.
  EXPECT_EQ(matching_shrew_harmonic(ms(500), sec(1.0), 10).value(), 2);
  EXPECT_EQ(matching_shrew_harmonic(sec(1.0), sec(1.0), 10).value(), 1);
  EXPECT_EQ(matching_shrew_harmonic(1.0 / 3.0, sec(1.0), 10).value(), 3);
  // 5% off is still within the default 10% tolerance.
  EXPECT_TRUE(matching_shrew_harmonic(ms(525), sec(1.0), 10).has_value());
  // Far from any harmonic.
  EXPECT_FALSE(matching_shrew_harmonic(ms(700), sec(1.0), 4).has_value());
}

TEST(ShrewTest, InvalidArgsThrow) {
  EXPECT_THROW(shrew_period(0.0, 1), ParameterError);
  EXPECT_THROW(shrew_period(1.0, 0), ParameterError);
  EXPECT_THROW(matching_shrew_harmonic(0.0, 1.0, 5), ParameterError);
}

}  // namespace
}  // namespace pdos
