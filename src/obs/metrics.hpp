// Metrics registry: named counters, gauges, fixed-bin histograms and
// quantile sketches cheap enough for simulation hot paths.
//
// Design constraints (mirroring production VoD servers, e.g. the
// performance-counter blocks of nginx-vod-module):
//   * increments are lock-free (relaxed atomics) — safe from any thread;
//   * instrument handles are stable for the registry's lifetime, so hot
//     loops resolve a name once and then touch only the atomic;
//   * one store: every instrument is a series of a family (obs/family.hpp),
//     and an unlabeled instrument is the one series of a family with no
//     label keys — the OpenMetrics model, where an unlabeled metric is a
//     family whose label set is empty;
//   * snapshots are lazily materialized on demand: nothing is aggregated
//     until snapshot()/to_json()/to_openmetrics() is called;
//   * when no registry is wired up (the null-sink default) instrumented code
//     pays one pointer test and nothing else.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "obs/family.hpp"
#include "obs/quantile_sketch.hpp"

namespace vodbcast::obs {

/// Monotonic event count. Lock-free; relaxed ordering (metrics tolerate
/// being read mid-update).
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written scalar (queue depth, peak rate). set() overwrites; add()
/// and max_of() update via CAS so concurrent writers never lose updates.
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(double delta) noexcept;
  /// Raises the gauge to `v` if larger (peak tracking).
  void max_of(double v) noexcept;
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bin histogram: bucket i counts samples <= bounds[i]; one implicit
/// overflow bucket counts the rest. Bounds are fixed at construction so
/// observe() is a branch-light binary search plus one relaxed increment.
class Histogram {
 public:
  /// Preconditions: bounds non-empty and strictly increasing.
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double sample) noexcept;

  [[nodiscard]] const std::vector<double>& bounds() const noexcept {
    return bounds_;
  }
  /// Number of buckets including the overflow bucket.
  [[nodiscard]] std::size_t bucket_count() const noexcept {
    return bounds_.size() + 1;
  }
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double mean() const noexcept;

  /// Folds `other`'s buckets, count and sum into this histogram.
  /// Throws std::invalid_argument when the bounds differ — adding buckets
  /// positionally across different grids would silently mis-fold.
  void merge_from(const Histogram& other);

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Exponential bucket bounds for nanosecond timings: 1us .. ~1s.
[[nodiscard]] std::vector<double> default_time_bounds_ns();
/// Bucket bounds for tune-in waits in minutes: 0.01 .. ~30 min.
[[nodiscard]] std::vector<double> default_latency_bounds_min();

/// Point-in-time copy of every series, detached from the registry. Each
/// kind has one view vector: unlabeled series first, in name order, then
/// labeled series in (name, label-tuple) order with a family's overflow
/// series last — the order every export prints.
struct Snapshot {
  /// (key, value) pairs in the family's key order; empty for unlabeled
  /// instruments.
  using Labels = std::vector<std::pair<std::string, std::string>>;

  struct HistogramView {
    std::string name;
    std::vector<double> bounds;            ///< upper bounds per bucket
    std::vector<std::uint64_t> buckets;    ///< bounds.size() + 1 entries
    std::uint64_t count = 0;
    double sum = 0.0;
    double p50 = 0.0;                      ///< interpolated; see quantile()
    double p95 = 0.0;
    double p99 = 0.0;
    Labels labels;

    /// Interpolated quantile estimate (Prometheus histogram_quantile
    /// semantics): linear within the bucket that crosses rank q*count; the
    /// first bucket's lower edge is min(0, bound); samples in the overflow
    /// bucket clamp to the last finite bound. q in [0, 1]; 0 when empty.
    [[nodiscard]] double quantile(double q) const;
  };

  struct SketchView {
    std::string name;
    Labels labels;
    double relative_accuracy = 0.0;
    double gamma = 1.0;
    std::uint64_t zero_count = 0;
    /// Sorted (log-bucket index, count) pairs — the full mergeable state.
    std::vector<std::pair<std::int32_t, std::uint64_t>> buckets;
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    std::uint64_t collapsed = 0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    double p999 = 0.0;

    /// Same estimate as QuantileSketch::quantile, recomputed from the
    /// captured buckets (usable after merges). q in [0, 1]; 0 when empty.
    [[nodiscard]] double quantile(double q) const;
  };

  struct CounterView {
    std::string name;
    Labels labels;
    std::uint64_t value = 0;

    bool operator==(const CounterView&) const = default;
  };
  struct GaugeView {
    std::string name;
    Labels labels;
    double value = 0.0;

    bool operator==(const GaugeView&) const = default;
  };

  std::vector<CounterView> counters;
  std::vector<GaugeView> gauges;
  std::vector<HistogramView> histograms;
  std::vector<SketchView> sketches;
};

/// Owns the instruments. Lookup/creation takes a mutex (cold path);
/// returned references stay valid for the registry's lifetime.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Finds or creates the one series of the label-free family `name`.
  /// Names are conventionally dotted lowercase paths, e.g.
  /// "sim.clients_served" (see docs/OBSERVABILITY.md). A name is bound to
  /// one instrument kind and one label-key list for the registry's
  /// lifetime; asking for it as another kind, or with other label keys,
  /// throws std::invalid_argument (two shapes under one name would emit
  /// clashing series in exposition).
  [[nodiscard]] Counter& counter(const std::string& name);
  [[nodiscard]] Gauge& gauge(const std::string& name);
  /// `bounds` is used only on first creation; later calls with the same
  /// name return the existing histogram unchanged.
  [[nodiscard]] Histogram& histogram(const std::string& name,
                                     std::vector<double> bounds);
  /// `options` is used only on first creation, like histogram bounds.
  [[nodiscard]] QuantileSketch& sketch(const std::string& name,
                                       QuantileSketch::Options options = {});

  /// Labeled families. `max_series` (and bounds / options) are used only on
  /// first creation; the cardinality-cap overflow of every labeled family
  /// increments the registry's "obs.labels_dropped" counter. An empty
  /// `label_keys` names the label-free family the accessors above use.
  [[nodiscard]] Family<Counter>& counter_family(
      const std::string& name, std::vector<std::string> label_keys,
      std::size_t max_series = kDefaultMaxSeries);
  [[nodiscard]] Family<Gauge>& gauge_family(
      const std::string& name, std::vector<std::string> label_keys,
      std::size_t max_series = kDefaultMaxSeries);
  [[nodiscard]] Family<Histogram>& histogram_family(
      const std::string& name, std::vector<std::string> label_keys,
      std::vector<double> bounds,
      std::size_t max_series = kDefaultMaxSeries);
  [[nodiscard]] Family<QuantileSketch>& sketch_family(
      const std::string& name, std::vector<std::string> label_keys,
      QuantileSketch::Options options = {},
      std::size_t max_series = kDefaultMaxSeries);

  [[nodiscard]] Snapshot snapshot() const;

  /// Folds another registry into this one — the shard-merge for parallel
  /// runs where each worker records into a private sink and the results are
  /// combined after the join. Families fold label-wise (subject to this
  /// registry's cardinality cap), each series by its kind's rule: counters
  /// add; gauges take the maximum (every current gauge is a peak: peak
  /// rate, deepest queue); histograms add bucket-wise; sketches add
  /// log-bucket-wise. Families new here are adopted with `other`'s shape.
  /// Every name of `other` is checked before anything is bound or folded,
  /// so a failed merge leaves this registry unchanged: a kind clash or a
  /// histogram-bounds / sketch-accuracy mismatch throws
  /// std::invalid_argument naming the instrument, and a label-key clash
  /// violates the precondition that shards share one schema. Merging in a
  /// fixed shard order yields identical registries at any thread count.
  void merge_from(const Registry& other);

  /// One JSON object: {"counters":{...},"gauges":{...},"histograms":{...},
  /// "sketches":{...}}. Labeled series flatten into their section under
  /// 'name{key=value,...}' keys.
  [[nodiscard]] std::string to_json() const;
  /// OpenMetrics text exposition (# TYPE/# HELP/# EOF, escaped labels,
  /// _bucket/_sum/_count histogram series, summary quantiles for sketches).
  /// Dotted names are sanitized to underscore form; # HELP preserves the
  /// original dotted name. Lintable by tools/metrics_check.
  [[nodiscard]] std::string to_openmetrics() const;

 private:
  enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram, kSketch };
  template <typename T>
  using Store = std::map<std::string, std::unique_ptr<Family<T>>>;

  /// Finds or creates the family `name`; `label_keys`, `max_series` and
  /// `factory` shape a new family. Throws std::invalid_argument when `name`
  /// is bound to another kind or another label-key list. Requires mutex_
  /// held.
  template <typename T>
  [[nodiscard]] Family<T>& family_locked(const std::string& name,
                                         std::vector<std::string> label_keys,
                                         std::size_t max_series,
                                         typename Family<T>::Factory factory);
  /// Throws, changing nothing, when a kind-T family of `other` cannot fold
  /// into this registry. Requires both mutexes held.
  template <typename T>
  void check_merge_locked(const Registry& other) const;
  /// Folds `other`'s kind-T families in. Requires both mutexes held.
  template <typename T>
  void merge_locked(const Registry& other);

  mutable std::mutex mutex_;
  std::map<std::string, Kind> kinds_;
  std::tuple<Store<Counter>, Store<Gauge>, Store<Histogram>,
             Store<QuantileSketch>>
      stores_;
};

}  // namespace vodbcast::obs
