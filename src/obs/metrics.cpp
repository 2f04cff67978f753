#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "util/contracts.hpp"
#include "util/json.hpp"

namespace vodbcast::obs {

namespace {

constexpr const char* kLabelsDroppedName = "obs.labels_dropped";

// CAS update helper for atomic doubles: GCC's fetch_add on atomic<double>
// is fine in C++20 but a CAS loop keeps us portable to older libstdc++.
template <typename Fn>
void update_double(std::atomic<double>& target, Fn&& combine) noexcept {
  double cur = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(cur, combine(cur),
                                       std::memory_order_relaxed,
                                       std::memory_order_relaxed)) {
  }
}

Snapshot::Labels make_labels(const std::vector<std::string>& keys,
                             const std::vector<std::string>& values) {
  Snapshot::Labels labels;
  labels.reserve(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    labels.emplace_back(keys[i], values[i]);
  }
  return labels;
}

/// `name{k=v,...}` — the flattened series key used by to_json.
std::string series_key(const std::string& name,
                       const Snapshot::Labels& labels) {
  if (labels.empty()) {
    return name;
  }
  std::string key = name + "{";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) {
      key += ',';
    }
    key += labels[i].first + "=" + labels[i].second;
  }
  key += '}';
  return key;
}

Snapshot::CounterView make_view(const std::string& name, const Counter& c,
                                Snapshot::Labels labels) {
  return {name, std::move(labels), c.value()};
}

Snapshot::GaugeView make_view(const std::string& name, const Gauge& g,
                              Snapshot::Labels labels) {
  return {name, std::move(labels), g.value()};
}

Snapshot::HistogramView make_view(const std::string& name, const Histogram& h,
                                  Snapshot::Labels labels) {
  Snapshot::HistogramView view;
  view.name = name;
  view.labels = std::move(labels);
  view.bounds = h.bounds();
  view.buckets.resize(h.bucket_count());
  for (std::size_t i = 0; i < h.bucket_count(); ++i) {
    view.buckets[i] = h.bucket(i);
  }
  view.count = h.count();
  view.sum = h.sum();
  view.p50 = view.quantile(0.50);
  view.p95 = view.quantile(0.95);
  view.p99 = view.quantile(0.99);
  return view;
}

Snapshot::SketchView make_view(const std::string& name,
                               const QuantileSketch& s,
                               Snapshot::Labels labels) {
  Snapshot::SketchView view;
  view.name = name;
  view.labels = std::move(labels);
  view.relative_accuracy = s.relative_accuracy();
  view.gamma = s.gamma();
  view.zero_count = s.zero_count();
  view.buckets = s.buckets();
  view.count = s.count();
  view.sum = s.sum();
  view.min = s.min();
  view.max = s.max();
  view.collapsed = s.collapsed();
  view.p50 = view.quantile(0.50);
  view.p95 = view.quantile(0.95);
  view.p99 = view.quantile(0.99);
  view.p999 = view.quantile(0.999);
  return view;
}

/// Appends one view per series of `store`: label-free families first, then
/// labeled ones, each pass in name order.
template <typename Store, typename View>
void append_views(const Store& store, std::vector<View>& out) {
  for (const bool labeled : {false, true}) {
    for (const auto& [name, family] : store) {
      const bool family_labeled = !family->label_keys().empty();
      if (family_labeled != labeled) {
        continue;
      }
      family->for_each([&](const std::vector<std::string>& values,
                           const auto& series) {
        out.push_back(
            make_view(name, series, make_labels(family->label_keys(), values)));
      });
    }
  }
}

/// Folds one series into another by its kind's merge rule.
void fold_series(Counter& dst, const Counter& src) { dst.add(src.value()); }
void fold_series(Gauge& dst, const Gauge& src) { dst.max_of(src.value()); }
void fold_series(Histogram& dst, const Histogram& src) { dst.merge_from(src); }
void fold_series(QuantileSketch& dst, const QuantileSketch& src) {
  dst.merge_from(src);
}

std::unique_ptr<Counter> make_counter() { return std::make_unique<Counter>(); }

[[noreturn]] void throw_kind_clash(const std::string& name) {
  throw std::invalid_argument(
      "metric '" + name +
      "' is already registered as a different instrument kind");
}

[[noreturn]] void rethrow_with_metric(const std::string& name,
                                      const std::invalid_argument& e) {
  throw std::invalid_argument("metric '" + name + "': " + e.what());
}

}  // namespace

void increment_drop_counter(Counter* counter) noexcept {
  if (counter != nullptr) {
    counter->add();
  }
}

void Gauge::add(double delta) noexcept {
  update_double(value_, [delta](double cur) { return cur + delta; });
}

void Gauge::max_of(double v) noexcept {
  update_double(value_, [v](double cur) { return std::max(cur, v); });
}

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)) {
  VB_EXPECTS(!bounds_.empty());
  VB_EXPECTS(std::is_sorted(bounds_.begin(), bounds_.end()));
  VB_EXPECTS(std::adjacent_find(bounds_.begin(), bounds_.end()) ==
             bounds_.end());
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(bucket_count());
  for (std::size_t i = 0; i < bucket_count(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
}

void Histogram::observe(double sample) noexcept {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), sample);
  const auto index = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[index].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  update_double(sum_, [sample](double cur) { return cur + sample; });
}

double Histogram::mean() const noexcept {
  const auto n = count();
  return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

void Histogram::merge_from(const Histogram& other) {
  if (bounds_ != other.bounds_) {
    throw std::invalid_argument(
        "histogram merge: bucket bounds mismatch; adding buckets "
        "positionally across different grids would silently mis-fold");
  }
  for (std::size_t i = 0; i < bucket_count(); ++i) {
    buckets_[i].fetch_add(other.buckets_[i].load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
  }
  count_.fetch_add(other.count_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  const double delta = other.sum_.load(std::memory_order_relaxed);
  update_double(sum_, [delta](double cur) { return cur + delta; });
}

std::vector<double> default_time_bounds_ns() {
  std::vector<double> bounds;
  for (double b = 1e3; b <= 1e9; b *= 4.0) {  // 1us .. ~1s, 11 buckets
    bounds.push_back(b);
  }
  return bounds;
}

std::vector<double> default_latency_bounds_min() {
  return {0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0};
}

double Snapshot::HistogramView::quantile(double q) const {
  VB_EXPECTS(q >= 0.0 && q <= 1.0);
  if (count == 0) {
    return 0.0;
  }
  const double target = q * static_cast<double>(count);
  double cum = 0.0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const double in_bucket = static_cast<double>(buckets[i]);
    cum += in_bucket;
    if (cum < target || in_bucket == 0.0) {
      continue;
    }
    if (i >= bounds.size()) {
      return bounds.back();  // overflow bucket: clamp to last finite bound
    }
    const double upper = bounds[i];
    const double lower = i == 0 ? std::min(0.0, upper) : bounds[i - 1];
    const double frac = (target - (cum - in_bucket)) / in_bucket;
    return lower + (upper - lower) * frac;
  }
  return bounds.back();
}

double Snapshot::SketchView::quantile(double q) const {
  VB_EXPECTS(q >= 0.0 && q <= 1.0);
  if (count == 0) {
    return 0.0;
  }
  const auto rank =
      static_cast<std::uint64_t>(q * static_cast<double>(count - 1));
  if (rank < zero_count) {
    return 0.0;
  }
  std::uint64_t cum = zero_count;
  for (const auto& [index, n] : buckets) {
    cum += n;
    if (cum > rank) {
      return 2.0 * std::pow(gamma, index) / (gamma + 1.0);
    }
  }
  return max;
}

template <typename T>
Family<T>& Registry::family_locked(const std::string& name,
                                   std::vector<std::string> label_keys,
                                   std::size_t max_series,
                                   typename Family<T>::Factory factory) {
  auto& store = std::get<Store<T>>(stores_);
  if (const auto it = store.find(name); it != store.end()) {
    if (it->second->label_keys() != label_keys) {
      throw std::invalid_argument(
          "metric '" + name +
          "' is already registered with different label keys");
    }
    return *it->second;
  }
  if (kinds_.contains(name)) {
    throw_kind_clash(name);
  }
  // A label-free family has one series and never overflows, so only a
  // labeled family needs the drop counter.
  Counter* dropped =
      label_keys.empty()
          ? nullptr
          : &family_locked<Counter>(kLabelsDroppedName, {}, 1, make_counter)
                 .with({});
  constexpr Kind kind = std::is_same_v<T, Counter>     ? Kind::kCounter
                        : std::is_same_v<T, Gauge>     ? Kind::kGauge
                        : std::is_same_v<T, Histogram> ? Kind::kHistogram
                                                       : Kind::kSketch;
  kinds_.emplace(name, kind);
  auto& slot = store[name];
  slot = std::make_unique<Family<T>>(std::move(label_keys), max_series,
                                     std::move(factory), dropped);
  return *slot;
}

template <typename T>
void Registry::check_merge_locked(const Registry& other) const {
  const auto& ours = std::get<Store<T>>(stores_);
  for (const auto& [name, theirs] : std::get<Store<T>>(other.stores_)) {
    const auto it = ours.find(name);
    if (it == ours.end()) {
      if (kinds_.contains(name)) {
        throw_kind_clash(name);
      }
      continue;
    }
    VB_EXPECTS_MSG(it->second->label_keys() == theirs->label_keys(),
                   "family merge requires an identical label key schema");
    // Folding an empty series of each side's shape throws on a bounds or
    // accuracy mismatch without touching either registry.
    try {
      fold_series(*it->second->factory()(), *theirs->factory()());
    } catch (const std::invalid_argument& e) {
      rethrow_with_metric(name, e);
    }
  }
}

template <typename T>
void Registry::merge_locked(const Registry& other) {
  for (const auto& [name, theirs] : std::get<Store<T>>(other.stores_)) {
    family_locked<T>(name, theirs->label_keys(), theirs->max_series(),
                     theirs->factory())
        .merge_from(*theirs,
                    [](T& dst, const T& src) { fold_series(dst, src); });
  }
}

Counter& Registry::counter(const std::string& name) {
  return counter_family(name, {}).with({});
}

Gauge& Registry::gauge(const std::string& name) {
  return gauge_family(name, {}).with({});
}

Histogram& Registry::histogram(const std::string& name,
                               std::vector<double> bounds) {
  return histogram_family(name, {}, std::move(bounds)).with({});
}

QuantileSketch& Registry::sketch(const std::string& name,
                                 QuantileSketch::Options options) {
  return sketch_family(name, {}, options).with({});
}

Family<Counter>& Registry::counter_family(const std::string& name,
                                          std::vector<std::string> label_keys,
                                          std::size_t max_series) {
  const std::scoped_lock lock(mutex_);
  return family_locked<Counter>(name, std::move(label_keys), max_series,
                                make_counter);
}

Family<Gauge>& Registry::gauge_family(const std::string& name,
                                      std::vector<std::string> label_keys,
                                      std::size_t max_series) {
  const std::scoped_lock lock(mutex_);
  return family_locked<Gauge>(name, std::move(label_keys), max_series,
                              [] { return std::make_unique<Gauge>(); });
}

Family<Histogram>& Registry::histogram_family(
    const std::string& name, std::vector<std::string> label_keys,
    std::vector<double> bounds, std::size_t max_series) {
  const std::scoped_lock lock(mutex_);
  return family_locked<Histogram>(
      name, std::move(label_keys), max_series,
      [bounds = std::move(bounds)] {
        return std::make_unique<Histogram>(bounds);
      });
}

Family<QuantileSketch>& Registry::sketch_family(
    const std::string& name, std::vector<std::string> label_keys,
    QuantileSketch::Options options, std::size_t max_series) {
  const std::scoped_lock lock(mutex_);
  return family_locked<QuantileSketch>(
      name, std::move(label_keys), max_series,
      [options] { return std::make_unique<QuantileSketch>(options); });
}

void Registry::merge_from(const Registry& other) {
  VB_EXPECTS(&other != this);
  const std::scoped_lock lock(mutex_, other.mutex_);
  check_merge_locked<Counter>(other);
  check_merge_locked<Gauge>(other);
  check_merge_locked<Histogram>(other);
  check_merge_locked<QuantileSketch>(other);
  merge_locked<Counter>(other);
  merge_locked<Gauge>(other);
  merge_locked<Histogram>(other);
  merge_locked<QuantileSketch>(other);
}

Snapshot Registry::snapshot() const {
  const std::scoped_lock lock(mutex_);
  Snapshot snap;
  append_views(std::get<Store<Counter>>(stores_), snap.counters);
  append_views(std::get<Store<Gauge>>(stores_), snap.gauges);
  append_views(std::get<Store<Histogram>>(stores_), snap.histograms);
  append_views(std::get<Store<QuantileSketch>>(stores_), snap.sketches);
  return snap;
}

std::string Registry::to_json() const {
  using util::json::number;
  const Snapshot snap = snapshot();
  const auto key = [](const auto& view) {
    return util::json::quote(series_key(view.name, view.labels));
  };
  std::ostringstream os;
  os << "{\"counters\":{";
  for (std::size_t i = 0; i < snap.counters.size(); ++i) {
    const auto& c = snap.counters[i];
    os << (i ? "," : "") << key(c) << ':' << c.value;
  }
  os << "},\"gauges\":{";
  for (std::size_t i = 0; i < snap.gauges.size(); ++i) {
    const auto& g = snap.gauges[i];
    os << (i ? "," : "") << key(g) << ':' << number(g.value);
  }
  os << "},\"histograms\":{";
  for (std::size_t i = 0; i < snap.histograms.size(); ++i) {
    const auto& h = snap.histograms[i];
    os << (i ? "," : "") << key(h) << ":{\"bounds\":[";
    for (std::size_t j = 0; j < h.bounds.size(); ++j) {
      os << (j ? "," : "") << number(h.bounds[j]);
    }
    os << "],\"buckets\":[";
    for (std::size_t j = 0; j < h.buckets.size(); ++j) {
      os << (j ? "," : "") << h.buckets[j];
    }
    os << "],\"count\":" << h.count << ",\"sum\":" << number(h.sum)
       << ",\"p50\":" << number(h.p50) << ",\"p95\":" << number(h.p95)
       << ",\"p99\":" << number(h.p99) << '}';
  }
  os << "},\"sketches\":{";
  for (std::size_t i = 0; i < snap.sketches.size(); ++i) {
    const auto& s = snap.sketches[i];
    os << (i ? "," : "") << key(s)
       << ":{\"relative_accuracy\":" << number(s.relative_accuracy)
       << ",\"count\":" << s.count << ",\"sum\":" << number(s.sum)
       << ",\"min\":" << number(s.min) << ",\"max\":" << number(s.max)
       << ",\"zero_count\":" << s.zero_count
       << ",\"tracked_buckets\":" << s.buckets.size() << ",\"collapsed\":"
       << s.collapsed << ",\"p50\":" << number(s.p50) << ",\"p95\":"
       << number(s.p95) << ",\"p99\":" << number(s.p99)
       << ",\"p999\":" << number(s.p999) << '}';
  }
  os << "}}";
  return os.str();
}

}  // namespace vodbcast::obs
