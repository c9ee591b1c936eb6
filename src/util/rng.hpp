// Deterministic random number generation.
//
// Every stochastic component (RED drop decisions, RTT jitter) draws from an
// `Rng` owned by the `Simulator`, so a scenario replays bit-identically from
// its seed. Components that need independent streams fork a child generator
// with `fork()`. A stream that takes exactly one draw (a flow's start
// offset, an attacker's phase) builds no engine: `one_draw_uniforms`
// computes the draw from the seed.
//
// The distribution objects are members, not per-draw temporaries: libstdc++
// distributions carry no draw-relevant state (every draw is a pure function
// of the engine and the parameter pack), so passing an explicit
// `param_type` per call produces the exact bit sequence the old
// construct-per-draw code did — pinned by RngTest.DrawSequenceMatches
// ReferenceImplementation — without re-running the constructor and its
// parameter validation on every draw of the hot RED/enqueue path.
#pragma once

#include <cstdint>
#include <optional>
#include <random>
#include <span>

namespace pdos {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 1) : engine_(seed) {}

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Exponential with the given mean (> 0).
  double exponential(double mean);

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool bernoulli(double p);

  /// Derive an independent child generator. Children created in the same
  /// order from the same parent are identical across runs.
  Rng fork();

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
  std::uniform_real_distribution<double> unit_dist_{0.0, 1.0};
  std::uniform_real_distribution<double> real_dist_;
  std::uniform_int_distribution<std::int64_t> int_dist_;
  std::exponential_distribution<double> exp_dist_;
};

/// Stateless seed derivation: mix `base` and `stream` into an independent
/// seed (SplitMix64 finalizer over both words). Unlike `Rng::fork()` this
/// does not consume generator state, so a component seeded with
/// `derive_seed(run_seed, tag)` gets the same stream no matter how many
/// other components were built before it — the determinism contract the
/// sweep engine and multi-attacker scenarios rely on.
std::uint64_t derive_seed(std::uint64_t base, std::uint64_t stream);

/// `std::mt19937_64(seed)`'s output sequence for a caller that already
/// knows its first output: the first call returns `first` without building
/// the 2.5 KB engine, and any later call builds the engine and continues
/// its sequence. libstdc++'s `uniform_real_distribution<double>` asks for
/// one output; a library whose `generate_canonical` asks for two still gets
/// the engine's exact sequence.
class OneShotGenerator {
 public:
  using result_type = std::mt19937_64::result_type;
  static constexpr result_type min() { return std::mt19937_64::min(); }
  static constexpr result_type max() { return std::mt19937_64::max(); }

  /// `first` must be `std::mt19937_64(seed)`'s first output.
  OneShotGenerator(std::uint64_t seed, result_type first)
      : seed_(seed), first_(first) {}

  result_type operator()();

 private:
  std::uint64_t seed_;
  result_type first_;
  bool used_ = false;
  std::optional<std::mt19937_64> engine_;  // built on a second call only
};

/// `out[i] = Rng(seeds[i]).uniform(lo, hi)` for every i, bit for bit, for
/// streams that take exactly one draw (flow start offsets, attacker
/// phases). No engine is built: the first output of `mt19937_64(s)` needs
/// only state words 0, 1 and m = 156, so each seed costs 156 steps of the
/// seeding recurrence plus one twist step and the tempering, eight seeds
/// interleaved per loop. The output goes through the same distribution
/// `Rng::uniform` uses, fed by a `OneShotGenerator`. `out` must be as long
/// as `seeds`; lo > hi is a ParameterError, as in `Rng::uniform`.
void one_draw_uniforms(std::span<const std::uint64_t> seeds, double lo,
                       double hi, std::span<double> out);

}  // namespace pdos
