#include "attack/distributed.hpp"

#include "util/assert.hpp"

namespace pdos {

std::vector<PulseTrain> split_train(const PulseTrain& train, int k) {
  train.validate();
  PDOS_REQUIRE(k >= 1, "split_train: need at least one source");
  PulseTrain sub = train;
  sub.rattack = train.rattack / static_cast<double>(k);
  PDOS_REQUIRE(transmission_time(sub.packet_bytes, sub.rattack) <=
                   sub.textent,
               "split_train: too many sources — a sub-train could not fit "
               "one packet per pulse");
  return std::vector<PulseTrain>(static_cast<std::size_t>(k), sub);
}

std::vector<Time> spread_phases(int k, Time spread, Rng& rng) {
  PDOS_REQUIRE(k >= 1, "spread_phases: need at least one source");
  PDOS_REQUIRE(spread >= 0.0, "spread_phases: spread must be >= 0");
  std::vector<Time> phases(static_cast<std::size_t>(k), 0.0);
  if (spread > 0.0) {
    for (Time& phase : phases) phase = rng.uniform(0.0, spread);
  }
  return phases;
}

std::vector<Time> spread_phases_seeded(int k, Time spread,
                                       std::uint64_t base_seed) {
  PDOS_REQUIRE(k >= 1, "spread_phases: need at least one source");
  PDOS_REQUIRE(spread >= 0.0, "spread_phases: spread must be >= 0");
  // Stream tag for attacker phase draws; per-source streams keep source a's
  // phase independent of every other draw in the run.
  constexpr std::uint64_t kPhaseStream = 0x70686173'65000000ULL;  // "phase"
  std::vector<Time> phases(static_cast<std::size_t>(k), 0.0);
  if (spread > 0.0) {
    std::vector<std::uint64_t> seeds(phases.size());
    for (std::size_t a = 0; a < seeds.size(); ++a) {
      seeds[a] = derive_seed(base_seed, kPhaseStream + a);
    }
    one_draw_uniforms(seeds, 0.0, spread, phases);
  }
  return phases;
}

double per_source_gamma(const PulseTrain& train, int k, BitRate rbottle) {
  PDOS_REQUIRE(k >= 1, "per_source_gamma: need at least one source");
  return train.gamma(rbottle) / static_cast<double>(k);
}

}  // namespace pdos
