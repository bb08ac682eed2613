#include "src/util/rng.h"

namespace unilocal {

std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

Rng::Rng(std::uint64_t seed) noexcept : lineage_(seed) {
  std::uint64_t sm = seed;
  for (auto& lane : s_) {
    sm = splitmix64(sm);
    lane = sm;
  }
  // xoshiro must not start at the all-zero state; splitmix64 of any seed
  // cannot produce four zero outputs in a row, but keep a cheap guard.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

Rng Rng::split(std::uint64_t stream) const noexcept {
  return Rng(splitmix64(lineage_ ^ splitmix64(stream)));
}

std::vector<std::int64_t> random_permutation(std::size_t n, Rng& rng) {
  std::vector<std::int64_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = static_cast<std::int64_t>(i);
  rng.shuffle(perm);
  return perm;
}

}  // namespace unilocal
