#include "util/rng.hpp"

#include <algorithm>
#include <array>
#include <cstddef>

#include "util/assert.hpp"

namespace pdos {

double Rng::uniform() { return unit_dist_(engine_); }

double Rng::uniform(double lo, double hi) {
  PDOS_REQUIRE(lo <= hi, "uniform: lo must be <= hi");
  using Dist = std::uniform_real_distribution<double>;
  return real_dist_(engine_, Dist::param_type(lo, hi));
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  PDOS_REQUIRE(lo <= hi, "uniform_int: lo must be <= hi");
  using Dist = std::uniform_int_distribution<std::int64_t>;
  return int_dist_(engine_, Dist::param_type(lo, hi));
}

double Rng::exponential(double mean) {
  PDOS_REQUIRE(mean > 0.0, "exponential: mean must be positive");
  using Dist = std::exponential_distribution<double>;
  return exp_dist_(engine_, Dist::param_type(1.0 / mean));
}

bool Rng::bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

Rng Rng::fork() {
  // Mix the parent stream into a fresh seed; consuming from the parent keeps
  // successive forks independent.
  const std::uint64_t seed = engine_() ^ 0x9e3779b97f4a7c15ULL;
  return Rng(seed);
}

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

std::uint64_t derive_seed(std::uint64_t base, std::uint64_t stream) {
  // Finalize both words so nearby (base, stream) pairs land far apart, and
  // combine asymmetrically so derive_seed(a, b) != derive_seed(b, a).
  return splitmix64(splitmix64(base) + 0x632be59bd9b4e019ULL * stream);
}

OneShotGenerator::result_type OneShotGenerator::operator()() {
  if (!used_) {
    used_ = true;
    return first_;
  }
  if (!engine_) {
    engine_.emplace(seed_);
    engine_->discard(1);
  }
  return (*engine_)();
}

namespace {

constexpr std::size_t kLanes = 8;
using Seeds = std::array<std::uint64_t, kLanes>;

/// The first output of `std::mt19937_64(seeds[k])` for each lane. The
/// engine seeds x[i] = f * (x[i-1] ^ (x[i-1] >> (w - 2))) + i, and its first
/// output is the tempered x[0] after one twist step, which reads x[0], x[1]
/// and x[m]; the other 309 state words never matter. Eight independent
/// seeding chains per loop keep the multiplier busy.
Seeds mt19937_64_first_outputs(const Seeds& seeds) {
  using E = std::mt19937_64;
  constexpr E::result_type kUpper = ~E::result_type{0} << E::mask_bits;
  const auto next = [](E::result_type x, std::size_t i) {
    return E::initialization_multiplier * (x ^ (x >> (E::word_size - 2))) + i;
  };
  Seeds x1{};
  Seeds xm{};
  for (std::size_t k = 0; k < kLanes; ++k) x1[k] = xm[k] = next(seeds[k], 1);
  for (std::size_t i = 2; i <= E::shift_size; ++i) {
    for (std::size_t k = 0; k < kLanes; ++k) xm[k] = next(xm[k], i);
  }
  Seeds out{};
  for (std::size_t k = 0; k < kLanes; ++k) {
    const E::result_type y = (seeds[k] & kUpper) | (x1[k] & ~kUpper);
    E::result_type z = xm[k] ^ (y >> 1) ^ ((y & 1) != 0 ? E::xor_mask : 0);
    z ^= (z >> E::tempering_u) & E::tempering_d;
    z ^= (z << E::tempering_s) & E::tempering_b;
    z ^= (z << E::tempering_t) & E::tempering_c;
    out[k] = z ^ (z >> E::tempering_l);
  }
  return out;
}

}  // namespace

void one_draw_uniforms(std::span<const std::uint64_t> seeds, double lo,
                       double hi, std::span<double> out) {
  PDOS_REQUIRE(lo <= hi, "uniform: lo must be <= hi");
  PDOS_REQUIRE(out.size() == seeds.size(),
               "one_draw_uniforms: out must be as long as seeds");
  using Dist = std::uniform_real_distribution<double>;
  Dist dist;
  const Dist::param_type range(lo, hi);
  for (std::size_t base = 0; base < seeds.size(); base += kLanes) {
    // A short last batch fills its unused lanes with zero seeds.
    const std::size_t n = std::min(kLanes, seeds.size() - base);
    Seeds batch{};
    std::copy_n(seeds.begin() + static_cast<std::ptrdiff_t>(base), n,
                batch.begin());
    const Seeds first = mt19937_64_first_outputs(batch);
    for (std::size_t k = 0; k < n; ++k) {
      OneShotGenerator gen(batch[k], first[k]);
      out[base + k] = dist(gen, range);
    }
  }
}

}  // namespace pdos
