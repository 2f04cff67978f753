// Broadcast series: the fragmentation law of a periodic-broadcast scheme.
//
// A broadcast series assigns every segment index n >= 1 a relative size
// (in units of the first segment). Skyscraper Broadcasting is defined by the
// recurrence (paper Section 3.2)
//
//             | 1                n = 1
//             | 2                n = 2, 3
//     f(n) =  | 2 f(n-1) + 1     n mod 4 == 0
//             | f(n-1)           n mod 4 == 1
//             | 2 f(n-1) + 2     n mod 4 == 2
//             | f(n-1)           n mod 4 == 3
//
// materializing as [1, 2, 2, 5, 5, 12, 12, 25, 25, 52, 52, ...]; applying the
// width cap W yields segment sizes min(f(n), W). The paper frames SB as a
// *family* of schemes parameterized by the series, so the generator is an
// interface with the flat (staggered) and fast-broadcast (powers of two)
// laws implemented alongside. The pyramid schemes' geometric sizes are not
// a series law: PB and PPB compute them from α in src/schemes.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace vodbcast::series {

/// Width cap value meaning "no cap" (the W = infinity curves in the paper).
inline constexpr std::uint64_t kUncapped =
    static_cast<std::uint64_t>(-1);

/// Integer broadcast series interface. Elements are sizes relative to the
/// first segment; element(1) must be 1 and elements must be non-decreasing.
class BroadcastSeries {
 public:
  virtual ~BroadcastSeries() = default;

  /// Human-readable law name ("skyscraper", "fast", ...).
  [[nodiscard]] virtual std::string name() const = 0;

  /// f(n) for n >= 1. Throws on overflow of the underlying recurrence.
  [[nodiscard]] virtual std::uint64_t element(int n) const = 0;

  /// f(n) given f(n - 1), for n >= 2, so prefix() walks a recurrence once
  /// instead of re-deriving every element. Defaults to element(n).
  [[nodiscard]] virtual std::uint64_t element_after(
      int n, std::uint64_t previous) const;

  /// First k elements with the width cap applied: min(f(n), width).
  [[nodiscard]] std::vector<std::uint64_t> prefix(
      int k, std::uint64_t width = kUncapped) const;

  /// Sum of the first k capped elements, i.e. the video length measured in
  /// first-segment units: D / D1.
  [[nodiscard]] std::uint64_t prefix_sum(int k,
                                         std::uint64_t width = kUncapped) const;
};

/// The paper's skyscraper series. Stateless: element() walks the
/// recurrence from f(1) (it overflows 64 bits within about 130 steps), so
/// concurrent calls on one instance are safe.
class SkyscraperSeries final : public BroadcastSeries {
 public:
  [[nodiscard]] std::string name() const override { return "skyscraper"; }
  [[nodiscard]] std::uint64_t element(int n) const override;
  [[nodiscard]] std::uint64_t element_after(
      int n, std::uint64_t previous) const override;
};

/// Fast Broadcasting's doubling law [1, 2, 4, 8, ...]; implemented as the
/// "alternative series" extension the paper's conclusion anticipates.
class FastSeries final : public BroadcastSeries {
 public:
  [[nodiscard]] std::string name() const override { return "fast"; }
  [[nodiscard]] std::uint64_t element(int n) const override;
};

/// The flat law [1, 1, 1, ...]: staggered periodic broadcast (every segment
/// equals the batching interval).
class FlatSeries final : public BroadcastSeries {
 public:
  [[nodiscard]] std::string name() const override { return "flat"; }
  [[nodiscard]] std::uint64_t element(int n) const override;
};

/// Creates a series generator by law name; throws on unknown names.
[[nodiscard]] std::unique_ptr<BroadcastSeries> make_series(
    const std::string& name);

/// The skyscraper closed-form helpers. These mirror the recurrence and are
/// cross-checked against it in tests.
namespace skyscraper {

/// True if segment n belongs to an odd transmission group (odd f(n)).
[[nodiscard]] bool is_odd_group_element(std::uint64_t value) noexcept;

/// Index (1-based) of the first n with f(n) >= value, i.e. where a width cap
/// of `value` starts binding. Returns 0 if value == 0.
[[nodiscard]] int first_index_reaching(std::uint64_t value);

}  // namespace skyscraper

}  // namespace vodbcast::series
