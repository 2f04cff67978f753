// Small numeric helpers shared across the library.
//
// The skyscraper correctness argument is number-theoretic (parities, gcd of
// consecutive group sizes), and the series elements grow geometrically, so we
// provide overflow-checked 64-bit arithmetic alongside the usual gcd/lcm.
#pragma once

#include <cmath>
#include <cstdint>
#include <optional>
#include <vector>

namespace vodbcast::util {

/// Greatest common divisor of two positive integers.
[[nodiscard]] std::uint64_t gcd_u64(std::uint64_t a, std::uint64_t b) noexcept;

/// Least common multiple; contract-checks against overflow.
[[nodiscard]] std::uint64_t lcm_u64(std::uint64_t a, std::uint64_t b);

/// a * b, or nullopt on unsigned 64-bit overflow.
[[nodiscard]] std::optional<std::uint64_t> checked_mul(std::uint64_t a,
                                                       std::uint64_t b) noexcept;

/// a + b, or nullopt on unsigned 64-bit overflow.
[[nodiscard]] std::optional<std::uint64_t> checked_add(std::uint64_t a,
                                                       std::uint64_t b) noexcept;

/// a * b; throws ContractViolation on overflow.
[[nodiscard]] std::uint64_t mul_or_die(std::uint64_t a, std::uint64_t b);

/// a + b; throws ContractViolation on overflow.
[[nodiscard]] std::uint64_t add_or_die(std::uint64_t a, std::uint64_t b);

/// Integer power base^exp; throws on overflow.
[[nodiscard]] std::uint64_t ipow(std::uint64_t base, unsigned exp);

/// True if |a - b| <= abs_tol + rel_tol * max(|a|, |b|).
[[nodiscard]] bool almost_equal(double a, double b, double rel_tol = 1e-9,
                                double abs_tol = 1e-12) noexcept;

/// Sum of the geometric series 1 + r + r^2 + ... + r^(n-1) (n terms).
/// Handles r == 1 exactly. Precondition: n >= 0, r > 0.
[[nodiscard]] double geometric_sum(double r, int n);

/// Floor of x with protection against the classic `floor(2.9999999999)`
/// artefact: values within `eps` of the next integer round up.
[[nodiscard]] std::int64_t robust_floor(double x, double eps = 1e-9);

/// Quantile by linear interpolation between order statistics: the value at
/// fractional rank q * (n - 1) of the *sorted* input. This is the one
/// quantile definition used everywhere results are reported —
/// `sim::Distribution`, the bench harness timing stats, and (bucket-wise,
/// the closest a histogram can get) obs histogram snapshots — so the same
/// data never prints two different percentiles.
/// Preconditions: `sorted` non-empty and ascending; q in [0, 1].
[[nodiscard]] double interpolated_quantile(const std::vector<double>& sorted,
                                           double q);

/// std::fmod(t, d) for t >= 0 and d > 0, bit for bit, at the cost of a
/// division and two fused multiply-adds instead of fmod's bitwise long
/// division. q = floor(t / d) is the true floor quotient, or one above it
/// when t / d rounds up to an integer; t - q * d at the true floor is the
/// exactly representable remainder, so one FMA returns it exactly, and a
/// negative result marks the rounded-up q for one fix-up step. Where q is
/// not an exact integer (t / d >= 2^53, or not finite) it calls std::fmod.
[[nodiscard]] inline double fmod_nonneg(double t, double d) noexcept {
  const double q = std::floor(t / d);
  if (!(q < 0x1p53)) {
    return std::fmod(t, d);
  }
  const double r = std::fma(-q, d, t);
  return r < 0.0 ? std::fma(1.0 - q, d, t) : r;
}

/// Euler's number to full double precision; the paper's alpha target.
inline constexpr double kEuler = 2.718281828459045235;

}  // namespace vodbcast::util
