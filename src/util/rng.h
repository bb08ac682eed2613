// Deterministic pseudo-random number generation for reproducible simulations.
//
// Every randomized LOCAL algorithm in this library draws its per-node random
// bits from an Rng seeded from (experiment seed, node identity), so runs are
// bit-reproducible across machines while different nodes still see
// independent-looking streams, as the LOCAL model requires.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

namespace unilocal {

/// Mixes a 64-bit value into a well-distributed 64-bit value (SplitMix64
/// finalizer). Used both as a stream splitter and as a hash.
std::uint64_t splitmix64(std::uint64_t x) noexcept;

/// Small, fast xoshiro256** generator. Satisfies the bare minimum of
/// UniformRandomBitGenerator so it can feed <random> adapters if needed.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four lanes of state via SplitMix64 so that any seed,
  /// including 0, yields a healthy state.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }

  result_type operator()() noexcept { return next(); }

  // The draws are inline: the delayed network makes two or three per
  // pulse, and an out-of-line call costs about as much as the draw.
  std::uint64_t next() noexcept {
    const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). bound must be > 0. Uses Lemire's
  /// multiply-shift rejection method (unbiased).
  std::uint64_t next_below(std::uint64_t bound) noexcept {
    std::uint64_t x = next();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    std::uint64_t l = static_cast<std::uint64_t>(m);
    if (l < bound) {
      const std::uint64_t t = (0 - bound) % bound;
      while (l < t) {
        x = next();
        m = static_cast<__uint128_t>(x) * bound;
        l = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive; requires lo <= hi.
  std::int64_t next_in(std::int64_t lo, std::int64_t hi) noexcept {
    const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(next_below(span));
  }

  /// Uniform double in [0, 1).
  double next_double() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool next_bool(double p) noexcept {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return next_double() < p;
  }

  /// A fresh generator whose stream is a deterministic function of this
  /// generator's seed lineage and `stream` — used to give each simulated
  /// node an independent stream.
  Rng split(std::uint64_t stream) const noexcept;

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(next_below(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

 private:
  std::uint64_t s_[4];
  std::uint64_t lineage_;  // remembers the seed for split()
};

/// A random permutation of [0, n) under the given generator.
std::vector<std::int64_t> random_permutation(std::size_t n, Rng& rng);

}  // namespace unilocal
