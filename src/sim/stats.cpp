#include "sim/stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "util/contracts.hpp"
#include "util/math.hpp"

namespace vodbcast::sim {

namespace {

/// Welford's update over samples[from..], where samples[i] was the
/// (i + 1)-th add: the arithmetic of an eager add, in insertion order.
void replay_moments(const std::vector<double>& samples, std::size_t from,
                    double& mean, double& m2) {
  for (std::size_t i = from; i < samples.size(); ++i) {
    const double sample = samples[i];
    const double delta = sample - mean;
    mean += delta / static_cast<double>(i + 1);
    m2 += delta * (sample - mean);
  }
}

}  // namespace

void Distribution::add_unfolded(double sample) {
  count_in(sample);
  if (cap_ == 0 || samples_.size() < cap_) {
    samples_.push_back(sample);  // the moments wait for a fold or merge
    return;
  }
  fold_now();
  fold_in(sample);
}

void Distribution::reserve(std::size_t n) {
  const std::size_t want = cap_ == 0 ? n : std::min(n, cap_);
  if (sketch_.has_value() || want > kReserveCeiling) {
    return;
  }
  samples_.reserve(want);
}

void Distribution::catch_up_moments() {
  replay_moments(samples_, moments_seen_, welford_mean_, welford_m2_);
  moments_seen_ = samples_.size();
}

void Distribution::fold_now() {
  catch_up_moments();
  if (!sketch_.has_value()) {
    sketch_.emplace();
  }
  for (const double s : samples_) {
    sketch_->observe(s);
  }
  samples_.clear();
  samples_.shrink_to_fit();
  moments_seen_ = 0;
}

void Distribution::merge(const Distribution& other) {
  // Merging into itself would insert the sample store into itself, or
  // throw from the sketch merge with count and sum already doubled.
  VB_EXPECTS_MSG(&other != this, "a distribution cannot merge itself");
  if (other.count_ == 0) {
    return;
  }
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  // Chan's parallel combination of the streaming moments, each side first
  // brought up to date (`other`'s in locals); merging in a fixed shard
  // order keeps the floats bit-identical at any thread count.
  catch_up_moments();
  double other_mean = other.welford_mean_;
  double other_m2 = other.welford_m2_;
  replay_moments(other.samples_, other.moments_seen_, other_mean, other_m2);
  const double na = static_cast<double>(count_);
  const double nb = static_cast<double>(other.count_);
  const double delta = other_mean - welford_mean_;
  welford_mean_ += delta * nb / (na + nb);
  welford_m2_ += other_m2 + delta * delta * na * nb / (na + nb);
  count_ += other.count_;
  sum_ += other.sum_;

  const bool must_fold =
      sketch_.has_value() || other.sketch_.has_value() ||
      (cap_ != 0 && samples_.size() + other.samples_.size() > cap_);
  if (!must_fold) {
    samples_.insert(samples_.end(), other.samples_.begin(),
                    other.samples_.end());
    moments_seen_ = samples_.size();
    return;
  }
  fold_now();
  for (const double s : other.samples_) {
    sketch_->observe(s);
  }
  if (other.sketch_.has_value()) {
    sketch_->merge_from(*other.sketch_);
  }
}

void Distribution::set_sample_cap(std::size_t cap) {
  cap_ = cap;
  if (cap_ != 0 && samples_.size() > cap_) {
    fold_now();
  }
}

double Distribution::mean() const {
  VB_EXPECTS(count_ != 0);
  return sum_ / static_cast<double>(count_);
}

double Distribution::min() const {
  VB_EXPECTS(count_ != 0);
  return min_;
}

double Distribution::max() const {
  VB_EXPECTS(count_ != 0);
  return max_;
}

std::vector<double> Distribution::sorted_copy() const {
  std::vector<double> sorted = samples_;
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

double Distribution::quantile(double q) const {
  VB_EXPECTS(count_ != 0);
  VB_EXPECTS(q >= 0.0 && q <= 1.0);
  if (sketch_.has_value()) {
    return sketch_->quantile(q);
  }
  // Scratch sort, freed on return: the distribution never retains a second
  // copy of its samples between queries.
  return util::interpolated_quantile(sorted_copy(), q);
}

double Distribution::stddev() const {
  VB_EXPECTS(count_ != 0);
  if (count_ < 2) {
    return 0.0;
  }
  if (sketch_.has_value()) {
    return std::sqrt(welford_m2_ / static_cast<double>(count_));
  }
  // Two-pass: center first, then accumulate squared deviations. The
  // sum_sq/n - m^2 identity loses every significant digit when the mean is
  // large against the spread (latencies offset by a big horizon).
  const double m = mean();
  double acc = 0.0;
  for (const double s : samples_) {
    const double d = s - m;
    acc += d * d;
  }
  return std::sqrt(acc / static_cast<double>(count_));
}

std::size_t Distribution::retained_bytes() const noexcept {
  std::size_t bytes = samples_.capacity() * sizeof(double);
  if (sketch_.has_value()) {
    bytes += sketch_->heap_bytes();
  }
  return bytes;
}

HistogramBins Distribution::histogram(std::size_t bins) const {
  VB_EXPECTS(count_ != 0);
  VB_EXPECTS(bins >= 1);
  VB_EXPECTS_MSG(!sketch_.has_value(),
                 "histogram() needs the raw samples; distribution is folded");
  HistogramBins out;
  out.lo = min();
  out.hi = max();
  out.counts.assign(bins, 0);
  const double width = (out.hi - out.lo) / static_cast<double>(bins);
  for (const double s : samples_) {
    std::size_t index = 0;
    if (width > 0.0) {
      index = static_cast<std::size_t>((s - out.lo) / width);
      index = std::min(index, bins - 1);  // top edge is inclusive
    }
    ++out.counts[index];
  }
  return out;
}

std::string Distribution::summary() const {
  if (count_ == 0) {
    return "n=0";
  }
  char buf[192];
  std::snprintf(buf, sizeof buf,
                "n=%zu mean=%.4g p50=%.4g p95=%.4g p99=%.4g max=%.4g",
                count(), mean(), quantile(0.5), quantile(0.95),
                quantile(0.99), max());
  std::string out = buf;
  if (sketch_.has_value()) {
    out += " folded=" + std::to_string(samples_folded());
  }
  return out;
}

}  // namespace vodbcast::sim
