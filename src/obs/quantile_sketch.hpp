// Mergeable quantile sketch with a relative-error guarantee (DDSketch-style
// log-bucketed counts).
//
// Fixed-bin histograms need bounds chosen before the run and clamp every
// tail quantile to the last finite bound — the p99.9 of a distribution that
// outgrew its bounds is a lie. The sketch instead buckets samples by
// logarithm: bucket i holds values in (gamma^(i-1), gamma^i] with
// gamma = (1 + a) / (1 - a), so any reported quantile is within relative
// accuracy `a` of a true sample value, with no pre-chosen bounds.
//
// Contracts that the rest of obs relies on:
//   * deterministic — bucket indices are a pure function of the sample, and
//     iteration order is the sorted bucket index;
//   * mergeable — merge_from adds counts bucket-wise; merging the same
//     multiset of samples in any grouping yields identical bucket contents
//     (the shard-merge contract of Registry::merge_from);
//   * bounded — at most `max_buckets` tracked (non-zero) buckets. On
//     overflow the two lowest buckets collapse into one (the low end loses
//     resolution first; tails — the reason the sketch exists — keep full
//     accuracy), and collapsed() counts how many times that happened;
//   * finite, non-negative domain — waits, gaps and durations are finite
//     and >= 0. NaN and +/-inf violate the precondition of observe()
//     (ContractViolation). Finite samples at or below kMinTrackable
//     (including any negative input) land in a dedicated zero bucket whose
//     estimate is exactly 0;
//   * two faces, one implementation — SketchCore is the unsynchronized,
//     copyable bucket state (mapping, dense store, collapse rule, quantile)
//     for a sketch only its owner can reach (sim::Distribution's fold).
//     QuantileSketch wraps one core in a mutex and is what the Registry
//     hands out: every member takes the lock, so Registry sketches may be
//     observed from any thread.
//
// Storage is DDSketch's dense store (Masson et al., VLDB 2019): one 8-byte
// counter per bucket index in a contiguous window, so observing into a
// tracked bucket is a single increment. The window grows with spare room
// at whichever end it has to move (amortized O(1)) and never past the
// indices a finite sample can reach, index_of(kMinTrackable) through
// index_of(DBL_MAX): at most ~(ln DBL_MAX - ln kMinTrackable) / ln gamma
// counters (about 36.5k, 292 KB, at a = 0.01) whatever the sample count.
// The window spans the occupied index range, not just the tracked
// buckets — a few KB for typical waits.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "util/contracts.hpp"

namespace vodbcast::obs {

namespace detail {

/// SketchCore's default relative accuracy: the grid of BucketBounds.
inline constexpr double kDefaultAccuracy = 0.01;

/// ln gamma for relative accuracy `a`, gamma = (1 + a) / (1 - a).
[[nodiscard]] inline double log_gamma_of(double relative_accuracy) noexcept {
  return std::log((1.0 + relative_accuracy) / (1.0 - relative_accuracy));
}

/// The bucket mapping: a sample in (gamma^(i-1), gamma^i] goes to bucket i,
/// exactly as ceil(ln sample / ln gamma) evaluates in floating point.
/// ceil() puts an exact power on its own boundary; the +/- noise of log()
/// stays within the accuracy budget. This expression defines every bucket;
/// BucketBounds answers it without the log.
[[nodiscard]] inline std::int32_t log_index(double sample,
                                            double log_gamma) noexcept {
  return static_cast<std::int32_t>(std::ceil(std::log(sample) / log_gamma));
}

/// log_index at the default accuracy without the log. The bucket index is
/// a step function of the sample, so a table of each bucket's largest
/// sample answers it exactly. A sample's exponent and top kKeyBits
/// mantissa bits (its key) pick a candidate bucket from a guide table. A
/// key spans at most ln(1 + 2^-kKeyBits) ~= 0.0155 in ln, less than one
/// bucket (ln gamma ~= 0.0200), so it holds at most one boundary, and one
/// compare against that boundary settles the bucket.
///
/// The boundaries come from evaluating log_index itself at run time, not
/// from a checked-in list, since another libm may round log differently at
/// a boundary. Away from a boundary the few ulps of error in the log and
/// the divide cannot carry the quotient across an integer, so the table
/// and the formula can only disagree within a few ulps of one, where
/// log_index might not be monotone; the tests compare both for every
/// double within 2^11 ulps of every boundary.
class BucketBounds {
 public:
  /// The covered range: every sample whose key lies between those of kLow
  /// (SketchCore::kMinTrackable: smaller samples never reach an index) and
  /// kHigh. Other samples, and other accuracies, take the formula.
  static constexpr double kLow = 1e-9;
  static constexpr double kHigh = 1e12;
  /// Mantissa bits in a sample's key, beside its exponent.
  static constexpr int kKeyBits = 6;

  /// The process-wide table for kDefaultAccuracy, built on first use by a
  /// thread-safe static initializer and immutable after: ~2.4k bounds
  /// (19 KB) and a ~4.5k-entry guide (9 KB), in well under a millisecond.
  [[nodiscard]] static const BucketBounds& instance() {
    static const BucketBounds table;
    return table;
  }

  /// log_index(sample, log_gamma) when the table covers both: log_gamma
  /// is this table's and the sample's key is in range; nullopt otherwise.
  [[nodiscard]] std::optional<std::int32_t> find(
      double sample, double log_gamma) const noexcept {
    if (log_gamma != log_gamma_) {
      return std::nullopt;  // another grid
    }
    return find(sample);
  }

  /// find(sample, log_gamma) on this table's own grid, for a caller that
  /// compared the grids once.
  [[nodiscard]] std::optional<std::int32_t> find(
      double sample) const noexcept {
    const std::uint64_t key =
        (std::bit_cast<std::uint64_t>(sample) >> kShift) - first_key_;
    if (key >= guide_.size()) {
      return std::nullopt;  // negative, tiny or huge
    }
    std::size_t j = guide_[key];
    j += static_cast<std::size_t>(sample > upper_[j]);
    return first_index_ + static_cast<std::int32_t>(j);
  }

  /// The bucket of upper()[0].
  [[nodiscard]] std::int32_t first_index() const noexcept {
    return first_index_;
  }
  /// upper()[j] is the largest double in bucket first_index() + j.
  [[nodiscard]] const std::vector<double>& upper() const noexcept {
    return upper_;
  }

 private:
  static constexpr int kShift = 52 - kKeyBits;

  BucketBounds();

  double log_gamma_;
  std::uint64_t first_key_;
  std::int32_t first_index_;
  std::vector<double> upper_;
  /// guide_[k]: the bucket, relative to first_index_, of key
  /// first_key_ + k's smallest double.
  std::vector<std::uint16_t> guide_;
};

}  // namespace detail

/// The sketch's bucket state with no synchronization: copyable, and safe
/// to use from one thread at a time (or concurrently through const members
/// only).
class SketchCore {
 public:
  struct Options {
    /// Relative accuracy `a`: quantile estimates are within a factor
    /// [1 - a, 1 + a] of a true sample. Preconditions: 0 < a < 1, and a
    /// large enough (about 1.7e-7) that the bucket index of every finite
    /// sample fits an int32_t.
    double relative_accuracy = detail::kDefaultAccuracy;
    /// Bucket budget; on overflow the lowest buckets collapse.
    /// Preconditions: >= 2.
    std::size_t max_buckets = 512;
  };

  /// Values at or below this threshold count in the zero bucket.
  static constexpr double kMinTrackable = 1e-9;

  SketchCore() : SketchCore(Options{}) {}
  explicit SketchCore(Options options);

  /// Precondition: `sample` is finite. Inline: it is the per-arrival step
  /// of every folded report distribution.
  void observe(double sample) {
    VB_EXPECTS(std::isfinite(sample));
    // Bucket first: growing the window is the only step that can throw
    // (bad_alloc), and it leaves the sketch untouched when it does.
    if (sample <= kMinTrackable) {
      ++zero_count_;
    } else {
      const std::int32_t index = index_of(sample);
      // Hot path: the bucket is already tracked, so one increment. An index
      // below the window wraps to a huge position and fails the bounds
      // test.
      const auto pos = static_cast<std::size_t>(std::int64_t{index} - base_);
      if (pos < counts_.size() && counts_[pos] != 0) {
        ++counts_[pos];
      } else {
        observe_new_bucket(index);
      }
    }
    if (count_ == 0) {
      min_ = sample;
      max_ = sample;
    } else {
      min_ = std::min(min_, sample);
      max_ = std::max(max_, sample);
    }
    ++count_;
    sum_ += sample;
  }

  /// Folds `other` bucket-wise into this sketch, then re-applies the bucket
  /// budget. Throws std::invalid_argument when the relative accuracies
  /// differ (the bucket grids would not line up).
  void merge_from(const SketchCore& other);

  /// Quantile estimate for q in [0, 1]; 0 when empty. Within
  /// relative_accuracy() of a true sample value (exact 0 for zero-bucket
  /// mass; collapsed low buckets degrade only the low quantiles).
  [[nodiscard]] double quantile(double q) const;

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  /// The smallest and largest sample; 0 when empty.
  [[nodiscard]] double min() const noexcept {
    return count_ == 0 ? 0.0 : min_;
  }
  [[nodiscard]] double max() const noexcept {
    return count_ == 0 ? 0.0 : max_;
  }
  [[nodiscard]] std::uint64_t zero_count() const noexcept {
    return zero_count_;
  }
  /// Number of tracked (non-zero) buckets, <= max_buckets.
  [[nodiscard]] std::size_t bucket_count() const noexcept { return nonzero_; }
  /// Times the bucket budget forced a collapse of the lowest buckets.
  [[nodiscard]] std::uint64_t collapsed() const noexcept { return collapsed_; }
  /// Heap bytes held by the counter array (its capacity, zeros included).
  [[nodiscard]] std::size_t heap_bytes() const noexcept {
    return counts_.capacity() * sizeof(std::uint64_t);
  }

  [[nodiscard]] double relative_accuracy() const noexcept {
    return options_.relative_accuracy;
  }
  [[nodiscard]] double gamma() const noexcept { return gamma_; }
  [[nodiscard]] const Options& options() const noexcept { return options_; }

  /// Sorted (bucket index, count) pairs — the full mergeable state, used by
  /// snapshots and the bit-identity tests.
  [[nodiscard]] std::vector<std::pair<std::int32_t, std::uint64_t>> buckets()
      const;

  void clear();

 private:
  /// detail::log_index(sample, log_gamma_): from the boundary table when
  /// it covers the sample, else from the formula.
  [[nodiscard]] std::int32_t index_of(double sample) const noexcept {
    if (bounds_ != nullptr) {
      if (const auto index = bounds_->find(sample)) {
        return *index;
      }
    }
    return detail::log_index(sample, log_gamma_);
  }
  /// Counts one sample whose bucket `index` holds no count yet: into a new
  /// bucket, or into the lowest one when the budget would collapse it.
  void observe_new_bucket(std::int32_t index);
  /// Grows the counter window to cover bucket indices [lo, hi].
  void cover(std::int32_t lo, std::int32_t hi);
  /// Bucket index of counter position `pos`.
  [[nodiscard]] std::int32_t index_at(std::size_t pos) const noexcept {
    return base_ + static_cast<std::int32_t>(pos);
  }
  /// Bookkeeping for a counter that just went from zero to non-zero.
  void track(std::size_t pos) noexcept;
  void collapse_to_budget();

  Options options_;
  double gamma_;
  double log_gamma_;
  /// The boundary table when this sketch's grid is the table's; null
  /// otherwise. Resolved once at construction, so an observe pays neither
  /// the table's initialization guard nor a grid compare.
  const detail::BucketBounds* bounds_ = nullptr;
  std::int32_t min_index_ = 0;  ///< no tracked sample has a lower index
  std::int32_t max_index_ = 0;  ///< no finite sample has a higher index
  /// counts_[k] counts bucket base_ + k; a zero counter is not a tracked
  /// bucket (spare room, or collapsed away).
  std::vector<std::uint64_t> counts_;
  std::int32_t base_ = 0;
  std::size_t lowest_ = 0;   ///< position of the lowest non-zero counter
  std::size_t nonzero_ = 0;  ///< tracked buckets
  std::uint64_t zero_count_ = 0;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  std::uint64_t collapsed_ = 0;
};

/// A SketchCore behind a mutex: the Registry's sketch, safe to observe,
/// merge and read from any thread. Every member takes the lock and
/// forwards to the core, so both faces share one bucket implementation.
class QuantileSketch {
 public:
  using Options = SketchCore::Options;
  static constexpr double kMinTrackable = SketchCore::kMinTrackable;

  QuantileSketch() = default;
  explicit QuantileSketch(Options options) : core_(options) {}

  QuantileSketch(const QuantileSketch&) = delete;
  QuantileSketch& operator=(const QuantileSketch&) = delete;

  /// Precondition: `sample` is finite.
  void observe(double sample);

  /// SketchCore::merge_from under both sketches' locks.
  void merge_from(const QuantileSketch& other);

  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] std::uint64_t count() const;
  [[nodiscard]] double sum() const;
  [[nodiscard]] double min() const;  ///< 0 when empty
  [[nodiscard]] double max() const;  ///< 0 when empty
  [[nodiscard]] std::uint64_t zero_count() const;
  [[nodiscard]] std::size_t bucket_count() const;
  [[nodiscard]] std::uint64_t collapsed() const;
  [[nodiscard]] std::size_t heap_bytes() const;

  // Fixed at construction, so readable without the lock.
  [[nodiscard]] double relative_accuracy() const noexcept {
    return core_.relative_accuracy();
  }
  [[nodiscard]] double gamma() const noexcept { return core_.gamma(); }
  [[nodiscard]] const Options& options() const noexcept {
    return core_.options();
  }

  [[nodiscard]] std::vector<std::pair<std::int32_t, std::uint64_t>> buckets()
      const;

  void clear();

 private:
  mutable std::mutex mutex_;
  SketchCore core_;
};

}  // namespace vodbcast::obs
