#include "util/rng.hpp"

namespace vodbcast::util {

std::uint64_t SplitMix64::next() noexcept {
  state_ += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state_;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) noexcept {
  SplitMix64 sm(seed);
  for (auto& word : state_) {
    word = sm.next();
  }
}

std::uint64_t Rng::next_below(std::uint64_t bound) noexcept {
  // Unbiased rejection sampling: discard the low 2^64 mod bound words.
  if (bound == 0) {
    return 0;  // degenerate; callers contract-check upstream
  }
  const std::uint64_t threshold = (0ULL - bound) % bound;
  while (true) {
    const std::uint64_t x = next_u64();
    if (x >= threshold) {
      return x % bound;
    }
  }
}

Rng Rng::fork() noexcept { return Rng(next_u64()); }

}  // namespace vodbcast::util
