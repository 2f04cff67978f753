// Deterministic random number generation for the workload substrate.
//
// All stochastic components (Poisson arrivals, Zipf video selection, random
// client phases in property tests) draw from this engine so every simulation
// run is reproducible from a single seed.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>

namespace vodbcast::util {

/// SplitMix64 (Steele, Lea & Flood): one 64-bit word of state, avalanching
/// output mixing. It both seeds `Rng` and derives per-replication seeds in
/// `sim::replicate` — replication r consumes the (r+1)-th output
/// of the stream seeded with the run seed, so replication results are
/// reproducible across machines and thread counts.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  /// Next word of the sequence.
  std::uint64_t next() noexcept;

 private:
  std::uint64_t state_;
};

/// xoshiro256** by Blackman & Vigna: fast, high-quality, tiny state.
/// Seeded through SplitMix64 so that nearby seeds give unrelated streams.
/// The draws are inline: every arrival of a run takes two.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept;

  /// Uniform 64-bit word.
  std::uint64_t next_u64() noexcept {
    const std::uint64_t result = std::rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = std::rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double next_double() noexcept {
    // 53 random bits scaled into [0, 1).
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, bound) using Lemire's rejection method.
  /// Precondition: bound > 0.
  std::uint64_t next_below(std::uint64_t bound) noexcept;

  /// Exponentially distributed variate with the given rate (mean 1/rate).
  /// Precondition: rate > 0.
  double next_exponential(double rate) noexcept {
    double u = next_double();
    if (u <= 0.0) {
      u = 0x1.0p-53;  // avoid log(0)
    }
    return -std::log(1.0 - u) / rate;
  }

  /// Forks an independent stream (e.g. one per simulated client).
  [[nodiscard]] Rng fork() noexcept;

 private:
  std::uint64_t state_[4];
};

}  // namespace vodbcast::util
