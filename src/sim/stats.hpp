// Sample statistics for simulation outputs (latency distributions, buffer
// peaks, queue lengths).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/quantile_sketch.hpp"
#include "util/contracts.hpp"

namespace vodbcast::sim {

/// Equal-width histogram over [lo, hi] (see Distribution::histogram).
struct HistogramBins {
  double lo = 0.0;
  double hi = 0.0;
  std::vector<std::uint64_t> counts;  ///< one entry per bin
};

/// Accumulates scalar samples; quantiles are computed on demand.
///
/// Two accounting modes:
///   * exact (the default, cap 0): every sample is retained and quantiles
///     interpolate over the sorted samples — bit-for-bit the historical
///     behavior. An exact add only appends and updates count, sum, min and
///     max: the streaming moments, which nothing reads before a fold, are
///     deferred and replayed over the retained samples in insertion order
///     at the first fold or merge, with the arithmetic of an eager add, so
///     their bits do not change. reserve(n) sizes the sample store up
///     front, so a run that knows its arrival count writes each sample
///     once and never holds two stores;
///   * streaming (set_sample_cap(n)): samples are retained exactly up to
///     the cap; crossing it folds everything into an obs::SketchCore (the
///     sketch's bucket state, unlocked: only this distribution reaches it)
///     and frees the sample storage, so memory stays bounded by the sketch's
///     counter window (a few KB for typical waits, at most ~292 KB at the
///     default accuracy) no matter how many samples arrive. Count, sum,
///     mean, min and max stay exact in both modes; folded quantiles carry
///     the sketch's relative accuracy and stddev switches to the streaming
///     (Welford) moments.
///
/// Merging two distributions in a fixed order yields identical state at
/// any thread count, in either mode (sketch buckets are order-free and the
/// scalar moments combine in merge order).
class Distribution {
 public:
  /// Precondition: `sample` is finite. A folded add is inline, being the
  /// per-arrival step of every capped report; an exact add and the add that
  /// crosses the cap stay out of line.
  void add(double sample) {
    if (!sketch_.has_value()) {
      add_unfolded(sample);
      return;
    }
    count_in(sample);
    fold_in(sample);
  }

  /// Room for `n` retained samples, clamped to the cap. A no-op once
  /// folded, and for more than kReserveCeiling samples (the store then
  /// grows by doubling, so an oversized exact run fails no earlier).
  void reserve(std::size_t n);
  static constexpr std::size_t kReserveCeiling = std::size_t{1} << 27;

  /// Folds `other`'s samples into this distribution (shard merging: each
  /// worker accumulates locally, then the results are combined). If either
  /// side has folded — or the combined retained count would cross this
  /// side's cap — the result is folded. Precondition: `other` is not this
  /// distribution.
  void merge(const Distribution& other);

  /// Streaming mode: retain at most `cap` samples exactly, then fold into
  /// a bounded quantile sketch. 0 (the default) retains everything. If
  /// more than `cap` samples are already retained, they fold immediately.
  void set_sample_cap(std::size_t cap);
  [[nodiscard]] std::size_t sample_cap() const noexcept { return cap_; }
  /// True once samples have been folded into the sketch (quantiles are now
  /// sketch-backed estimates; count/sum/mean/min/max remain exact).
  [[nodiscard]] bool folded() const noexcept { return sketch_.has_value(); }
  /// Samples represented only by the sketch; 0 while exact.
  [[nodiscard]] std::uint64_t samples_folded() const noexcept {
    return sketch_.has_value() ? sketch_->count() : 0;
  }
  /// The sketch behind the folded quantiles; nullptr while exact.
  [[nodiscard]] const obs::SketchCore* sketch() const noexcept {
    return sketch_.has_value() ? &*sketch_ : nullptr;
  }

  [[nodiscard]] std::size_t count() const noexcept {
    return static_cast<std::size_t>(count_);
  }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  /// Retained samples in insertion order (replication merges append in rep
  /// order, so two runs match exactly iff these vectors match). Empty once
  /// folded.
  [[nodiscard]] const std::vector<double>& samples() const noexcept {
    return samples_;
  }
  [[nodiscard]] double mean() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  /// Interpolated quantile (util::interpolated_quantile over the sorted
  /// samples) — the same definition the obs exports and bench timing stats
  /// report, so one dataset never prints two different percentiles. Once
  /// folded, the sketch's estimate (within its relative accuracy).
  /// q in [0, 1]. Precondition: non-empty.
  [[nodiscard]] double quantile(double q) const;
  /// Population standard deviation. Exact mode: two-pass mean-centered sum
  /// (no sum-of-squares identity: that cancels catastrophically when the
  /// mean dwarfs the spread). Folded mode: streaming Welford moments.
  /// 0 for fewer than two samples.
  [[nodiscard]] double stddev() const;

  /// Heap bytes retained by this distribution right now (the sample
  /// store's capacity, reserved or grown, plus the sketch's counter array,
  /// SketchCore::heap_bytes). Quantile calls sort into a scratch copy that
  /// is freed before returning, so this is also the post-query high water.
  [[nodiscard]] std::size_t retained_bytes() const noexcept;

  /// Equal-width bins spanning [min(), max()]; the top edge is inclusive so
  /// every sample lands in a bin. Preconditions: non-empty, bins >= 1,
  /// not folded (bins need the raw samples).
  [[nodiscard]] HistogramBins histogram(std::size_t bins) const;

  /// "n=100 mean=1.23 p50=1.10 p99=4.56 max=5.00"; a folded distribution
  /// appends " folded=N" so sketch-backed quantiles are recognizable.
  [[nodiscard]] std::string summary() const;

 private:
  /// The scalar part of an add: count, sum, min and max.
  void count_in(double sample) {
    VB_EXPECTS(std::isfinite(sample));
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
  /// The folded part of an add, after count_in: the Welford step and the
  /// sketch.
  void fold_in(double sample) {
    const double delta = sample - welford_mean_;
    welford_mean_ += delta / static_cast<double>(count_);
    welford_m2_ += delta * (sample - welford_mean_);
    sketch_->observe(sample);
  }
  /// add() before the fold: retains the sample, or folds at the cap.
  void add_unfolded(double sample);
  /// Moves every retained sample into the sketch and frees the storage.
  void fold_now();
  /// Replays the retained samples the streaming moments have not seen.
  void catch_up_moments();
  [[nodiscard]] std::vector<double> sorted_copy() const;

  std::vector<double> samples_;
  std::size_t cap_ = 0;  ///< 0 = retain everything
  std::optional<obs::SketchCore> sketch_;  ///< engaged once folded
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  // Streaming (Welford) moments, so stddev stays available after a fold.
  // While exact they cover the first moments_seen_ retained samples.
  double welford_mean_ = 0.0;
  double welford_m2_ = 0.0;
  std::size_t moments_seen_ = 0;
};

}  // namespace vodbcast::sim
