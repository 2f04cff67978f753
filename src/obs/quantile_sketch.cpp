#include "obs/quantile_sketch.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "util/contracts.hpp"

namespace vodbcast::obs {

namespace {

/// Spare counters on each side of a freshly grown window, at the least.
constexpr std::int64_t kMinSpare = 32;

/// The largest double whose log_index is at most `index`: from gamma^index,
/// within a few dozen ulps of the boundary, one ulp at a time (the bits of
/// a positive finite double count its ulps).
double largest_in_bucket(std::int32_t index, double log_gamma) {
  const auto at = [log_gamma](std::uint64_t bits) {
    return detail::log_index(std::bit_cast<double>(bits), log_gamma);
  };
  auto bits = std::bit_cast<std::uint64_t>(
      std::exp(static_cast<double>(index) * log_gamma));
  while (at(bits) > index) {
    --bits;
  }
  while (at(bits + 1) <= index) {
    ++bits;
  }
  return std::bit_cast<double>(bits);
}

}  // namespace

namespace detail {

BucketBounds::BucketBounds()
    : log_gamma_(log_gamma_of(kDefaultAccuracy)),
      first_key_(std::bit_cast<std::uint64_t>(kLow) >> kShift) {
  const std::uint64_t last_key = std::bit_cast<std::uint64_t>(kHigh) >> kShift;
  const auto key_front = [](std::uint64_t key) {
    return std::bit_cast<double>(key << kShift);
  };
  const auto key_back = [](std::uint64_t key) {
    return std::bit_cast<double>(((key + 1) << kShift) - 1);
  };
  first_index_ = log_index(key_front(first_key_), log_gamma_);
  const std::int32_t last_index = log_index(key_back(last_key), log_gamma_);
  VB_ASSERT(last_index - first_index_ < 0xFFFF);  // guide entries fit
  upper_.reserve(static_cast<std::size_t>(last_index - first_index_ + 1));
  for (std::int32_t i = first_index_; i <= last_index; ++i) {
    upper_.push_back(largest_in_bucket(i, log_gamma_));
    // The boundaries of a monotone log_index rise.
    VB_ASSERT(upper_.size() == 1 || upper_[upper_.size() - 2] < upper_.back());
  }
  guide_.reserve(static_cast<std::size_t>(last_key - first_key_ + 1));
  std::size_t j = 0;
  for (std::uint64_t key = first_key_; key <= last_key; ++key) {
    while (key_front(key) > upper_[j]) {
      ++j;
    }
    // One compare settles a key: it holds at most one boundary, so its
    // last double lies in bucket j or j + 1.
    VB_ASSERT(key_back(key) <= upper_[std::min(j + 1, upper_.size() - 1)]);
    guide_.push_back(static_cast<std::uint16_t>(j));
  }
}

}  // namespace detail

SketchCore::SketchCore(Options options) : options_(options) {
  VB_EXPECTS(options_.relative_accuracy > 0.0 &&
             options_.relative_accuracy < 1.0);
  VB_EXPECTS(options_.max_buckets >= 2);
  gamma_ = (1.0 + options_.relative_accuracy) /
           (1.0 - options_.relative_accuracy);
  log_gamma_ = detail::log_gamma_of(options_.relative_accuracy);
  // Every finite sample's bucket index must fit an int32_t.
  VB_EXPECTS(std::log(std::numeric_limits<double>::max()) / log_gamma_ <
             static_cast<double>(std::numeric_limits<std::int32_t>::max()));
  // index_of is monotone (the tests check it), so these bound every index a
  // finite sample above kMinTrackable can have. The formula gives the same
  // indices as the table.
  min_index_ = detail::log_index(kMinTrackable, log_gamma_);
  max_index_ = detail::log_index(std::numeric_limits<double>::max(),
                                 log_gamma_);
  // Only a sketch on the table's grid builds the table (on first use, so
  // this may throw bad_alloc).
  if (log_gamma_ == detail::log_gamma_of(detail::kDefaultAccuracy)) {
    bounds_ = &detail::BucketBounds::instance();
  }
}

void SketchCore::observe_new_bucket(std::int32_t index) {
  if (nonzero_ >= options_.max_buckets &&
      std::int64_t{index} < base_ + static_cast<std::int64_t>(lowest_)) {
    // A new lowest bucket at budget would collapse straight into the
    // current lowest one; count it there without growing the window.
    ++counts_[lowest_];
    ++collapsed_;
    return;
  }
  cover(index, index);
  const auto pos = static_cast<std::size_t>(index - base_);
  counts_[pos] = 1;
  track(pos);
  collapse_to_budget();
}

void SketchCore::cover(std::int32_t lo_index, std::int32_t hi_index) {
  const auto size = static_cast<std::int64_t>(counts_.size());
  if (size != 0 && lo_index >= base_ && hi_index < base_ + size) {
    return;
  }
  // Cover the old window and [lo_index, hi_index]. Each end that moves
  // gets spare room of at least half the covered span, so growth is
  // amortized O(1); clamped to the indices a finite sample can reach.
  VB_ASSERT(lo_index >= min_index_ && hi_index <= max_index_);
  std::int64_t lo = lo_index;
  std::int64_t hi = hi_index;
  if (size != 0) {
    lo = std::min<std::int64_t>(lo, base_);
    hi = std::max<std::int64_t>(hi, base_ + size - 1);
  }
  const std::int64_t spare = std::max(kMinSpare, (hi - lo + 1) / 2);
  if (size == 0 || lo < base_) {
    lo = std::max<std::int64_t>(lo - spare, min_index_);
  }
  if (size == 0 || hi >= base_ + size) {
    hi = std::min<std::int64_t>(hi + spare, max_index_);
  }
  std::vector<std::uint64_t> grown(static_cast<std::size_t>(hi - lo + 1));
  if (size != 0) {
    const auto shift = static_cast<std::size_t>(base_ - lo);
    std::copy(counts_.begin(), counts_.end(),
              grown.begin() + static_cast<std::ptrdiff_t>(shift));
    lowest_ += shift;
  }
  counts_ = std::move(grown);
  base_ = static_cast<std::int32_t>(lo);
}

void SketchCore::track(std::size_t pos) noexcept {
  if (nonzero_ == 0 || pos < lowest_) {
    lowest_ = pos;
  }
  ++nonzero_;
}

void SketchCore::collapse_to_budget() {
  // Collapse the two lowest buckets until within budget: low-end resolution
  // degrades first, tail quantiles stay exact to the accuracy bound.
  while (nonzero_ > options_.max_buckets) {
    std::size_t second = lowest_ + 1;
    while (counts_[second] == 0) {
      ++second;
    }
    counts_[second] += counts_[lowest_];
    counts_[lowest_] = 0;
    lowest_ = second;
    --nonzero_;
    ++collapsed_;
  }
}

void SketchCore::merge_from(const SketchCore& other) {
  VB_EXPECTS(&other != this);
  if (options_.relative_accuracy != other.options_.relative_accuracy) {
    throw std::invalid_argument(
        "quantile sketch merge: relative accuracy mismatch (" +
        std::to_string(options_.relative_accuracy) + " vs " +
        std::to_string(other.options_.relative_accuracy) +
        "); the bucket grids do not line up");
  }
  if (other.count_ > 0) {
    if (count_ == 0) {
      min_ = other.min_;
      max_ = other.max_;
    } else {
      min_ = std::min(min_, other.min_);
      max_ = std::max(max_, other.max_);
    }
  }
  count_ += other.count_;
  sum_ += other.sum_;
  zero_count_ += other.zero_count_;
  collapsed_ += other.collapsed_;
  if (other.nonzero_ == 0) {
    return;
  }
  std::size_t last = other.counts_.size() - 1;
  while (other.counts_[last] == 0) {
    --last;
  }
  cover(other.index_at(other.lowest_), other.index_at(last));
  const std::int64_t shift = std::int64_t{other.base_} - base_;
  for (std::size_t k = other.lowest_; k <= last; ++k) {
    const std::uint64_t n = other.counts_[k];
    if (n == 0) {
      continue;
    }
    const auto pos =
        static_cast<std::size_t>(static_cast<std::int64_t>(k) + shift);
    if (counts_[pos] == 0) {
      track(pos);
    }
    counts_[pos] += n;
  }
  collapse_to_budget();
}

double SketchCore::quantile(double q) const {
  VB_EXPECTS(q >= 0.0 && q <= 1.0);
  if (count_ == 0) {
    return 0.0;
  }
  // Rank of the q-th order statistic over count_ samples (0-based).
  const auto rank = static_cast<std::uint64_t>(
      q * static_cast<double>(count_ - 1));
  if (rank < zero_count_) {
    return 0.0;
  }
  std::uint64_t cum = zero_count_;
  for (std::size_t k = lowest_; k < counts_.size(); ++k) {
    cum += counts_[k];
    if (cum > rank) {
      // Midpoint of (gamma^(i-1), gamma^i]: relative error <= a at either
      // edge.
      return 2.0 * std::pow(gamma_, index_at(k)) / (gamma_ + 1.0);
    }
  }
  return max_;  // unreachable unless counts desynced; clamp to the max
}

std::vector<std::pair<std::int32_t, std::uint64_t>> SketchCore::buckets()
    const {
  std::vector<std::pair<std::int32_t, std::uint64_t>> out;
  out.reserve(nonzero_);
  for (std::size_t k = lowest_; k < counts_.size(); ++k) {
    if (counts_[k] != 0) {
      out.emplace_back(index_at(k), counts_[k]);
    }
  }
  return out;
}

void SketchCore::clear() {
  counts_ = std::vector<std::uint64_t>();  // releases the storage
  base_ = 0;
  lowest_ = 0;
  nonzero_ = 0;
  zero_count_ = 0;
  count_ = 0;
  sum_ = 0.0;
  min_ = 0.0;
  max_ = 0.0;
  collapsed_ = 0;
}

void QuantileSketch::observe(double sample) {
  // Checked before the lock, so a bad sample throws without taking it; the
  // core's identical check then folds away.
  VB_EXPECTS(std::isfinite(sample));
  const std::scoped_lock lock(mutex_);
  core_.observe(sample);
}

void QuantileSketch::merge_from(const QuantileSketch& other) {
  VB_EXPECTS(&other != this);
  const std::scoped_lock lock(mutex_, other.mutex_);
  core_.merge_from(other.core_);
}

double QuantileSketch::quantile(double q) const {
  const std::scoped_lock lock(mutex_);
  return core_.quantile(q);
}

std::uint64_t QuantileSketch::count() const {
  const std::scoped_lock lock(mutex_);
  return core_.count();
}

double QuantileSketch::sum() const {
  const std::scoped_lock lock(mutex_);
  return core_.sum();
}

double QuantileSketch::min() const {
  const std::scoped_lock lock(mutex_);
  return core_.min();
}

double QuantileSketch::max() const {
  const std::scoped_lock lock(mutex_);
  return core_.max();
}

std::uint64_t QuantileSketch::zero_count() const {
  const std::scoped_lock lock(mutex_);
  return core_.zero_count();
}

std::size_t QuantileSketch::bucket_count() const {
  const std::scoped_lock lock(mutex_);
  return core_.bucket_count();
}

std::uint64_t QuantileSketch::collapsed() const {
  const std::scoped_lock lock(mutex_);
  return core_.collapsed();
}

std::size_t QuantileSketch::heap_bytes() const {
  const std::scoped_lock lock(mutex_);
  return core_.heap_bytes();
}

std::vector<std::pair<std::int32_t, std::uint64_t>> QuantileSketch::buckets()
    const {
  const std::scoped_lock lock(mutex_);
  return core_.buckets();
}

void QuantileSketch::clear() {
  const std::scoped_lock lock(mutex_);
  core_.clear();
}

}  // namespace vodbcast::obs
