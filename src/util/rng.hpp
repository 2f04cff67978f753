// Deterministic random number generation for the workload substrate.
//
// All stochastic components (Poisson arrivals, Zipf video selection, random
// client phases in property tests) draw from this engine so every simulation
// run is reproducible from a single seed.
#pragma once

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
class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept;

  /// Uniform 64-bit word.
  std::uint64_t next_u64() noexcept;

  /// Uniform double in [0, 1).
  double next_double() noexcept;

  /// Uniform integer in [0, bound) using Lemire's rejection method.
  /// Precondition: bound > 0.
  std::uint64_t next_below(std::uint64_t bound) noexcept;

  /// Exponentially distributed variate with the given rate (mean 1/rate).
  /// Precondition: rate > 0.
  double next_exponential(double rate) noexcept;

  /// Forks an independent stream (e.g. one per simulated client).
  [[nodiscard]] Rng fork() noexcept;

 private:
  std::uint64_t state_[4];
};

}  // namespace vodbcast::util
