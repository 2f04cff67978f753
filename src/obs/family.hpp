// Labeled metric families: one named metric fanned out over a small ordered
// label set, e.g. `sb.client.wait{title="3"}` — the dimensional layer that
// lets a run answer "which title is starving?" instead of only "how bad is
// the aggregate?".
//
// Design rules:
//   * fixed schema — a family is created with an ordered list of label keys
//     and every series supplies exactly that many values, so exposition
//     never has to reconcile ragged label sets. An empty key list makes a
//     label-free family: the registry's unlabeled instruments, each the
//     one series `with({})` returns, which never overflows;
//   * hard cardinality cap — at most `max_series` distinct label tuples.
//     Once the cap is hit, new tuples fold into a single reserved
//     `__overflow__` series and a drop counter (obs.labels_dropped)
//     increments; memory is bounded no matter what ids the workload emits;
//   * deterministic iteration — series sit in a std::map over the value
//     tuple, so snapshots, exports and label-wise merges walk the same
//     order on every run and at any thread count;
//   * cold lookup, hot handle — with() takes a mutex and builds the tuple
//     key; hot loops resolve each series once (e.g. a per-title pointer
//     cache) and then touch only the instrument.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/contracts.hpp"

namespace vodbcast::obs {

class Counter;

/// Out-of-line `Counter::add(1)` (defined in metrics.cpp) so this header
/// only needs the forward declaration above.
void increment_drop_counter(Counter* counter) noexcept;

/// The reserved label value absorbing series beyond the cardinality cap.
inline constexpr const char* kOverflowLabel = "__overflow__";

/// Default per-family series cap; call sites with a known larger id space
/// (a catalog of titles, a channel pool) pass their own bound.
inline constexpr std::size_t kDefaultMaxSeries = 64;

template <typename T>
class Family {
 public:
  using Factory = std::function<std::unique_ptr<T>()>;
  using LabelValues = std::vector<std::string>;

  /// Precondition: max_series >= 1.
  /// `dropped` (may be null) increments each time a lookup is diverted to
  /// the overflow series. (Tracking *which* tuples were diverted would need
  /// unbounded memory — the very thing the cap bans.)
  Family(std::vector<std::string> label_keys, std::size_t max_series,
         Factory factory, Counter* dropped)
      : label_keys_(std::move(label_keys)),
        max_series_(max_series),
        factory_(std::move(factory)),
        dropped_(dropped) {
    VB_EXPECTS(max_series_ >= 1);
  }

  Family(const Family&) = delete;
  Family& operator=(const Family&) = delete;

  [[nodiscard]] const std::vector<std::string>& label_keys() const noexcept {
    return label_keys_;
  }
  [[nodiscard]] std::size_t max_series() const noexcept { return max_series_; }
  /// The series factory — lets Registry::merge_from adopt a family with the
  /// same instrument shape (bounds, accuracy) as the source.
  [[nodiscard]] const Factory& factory() const noexcept { return factory_; }

  /// Finds or creates the series for `values` (one per label key, in key
  /// order). Beyond the cap, returns the shared overflow series instead and
  /// counts the diverted lookup in the drop counter. The reference stays
  /// valid for the family's lifetime.
  [[nodiscard]] T& with(const LabelValues& values) {
    VB_EXPECTS_MSG(values.size() == label_keys_.size(),
                   "family label value count must match the key schema");
    const std::scoped_lock lock(mutex_);
    // An explicit overflow tuple (notably: merge_from re-injecting the
    // source's overflow series) addresses the shared series directly and is
    // not a drop.
    for (const auto& v : values) {
      if (v == kOverflowLabel) {
        if (overflow_ == nullptr) {
          overflow_ = factory_();
        }
        return *overflow_;
      }
    }
    const auto it = series_.find(values);
    if (it != series_.end()) {
      return *it->second;
    }
    if (series_.size() >= max_series_) {
      return overflow_locked();
    }
    auto& slot = series_[values];
    slot = factory_();
    return *slot;
  }

  /// Convenience for numeric label values (title ids, channel indices).
  [[nodiscard]] T& with_ids(const std::vector<std::uint64_t>& ids) {
    LabelValues values;
    values.reserve(ids.size());
    for (const auto id : ids) {
      values.push_back(std::to_string(id));
    }
    return with(values);
  }

  /// Distinct series currently tracked (the overflow series counts once).
  [[nodiscard]] std::size_t series_count() const {
    const std::scoped_lock lock(mutex_);
    return series_.size() + (overflow_ != nullptr ? 1 : 0);
  }

  /// Visits every series in deterministic (value-tuple) order; the overflow
  /// series, when present, comes last.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    const std::scoped_lock lock(mutex_);
    for (const auto& [values, series] : series_) {
      fn(values, *series);
    }
    if (overflow_ != nullptr) {
      fn(LabelValues(label_keys_.size(), kOverflowLabel), *overflow_);
    }
  }

  /// Label-wise fold: each of `other`'s series merges into the same-tuple
  /// series here via `merge` (created on demand, subject to this family's
  /// cap — series that cannot be created fold into overflow). Walks
  /// `other` in its deterministic order, so a fixed shard order reproduces
  /// identical families at any thread count.
  template <typename MergeFn>
  void merge_from(const Family& other, MergeFn&& merge) {
    VB_EXPECTS(&other != this);
    VB_EXPECTS_MSG(label_keys_ == other.label_keys_,
                   "family merge requires an identical label key schema");
    other.for_each([&](const LabelValues& values, const T& series) {
      merge(with(values), series);
    });
  }

 private:
  /// Requires mutex_ held.
  [[nodiscard]] T& overflow_locked() {
    if (overflow_ == nullptr) {
      overflow_ = factory_();
    }
    increment_drop_counter(dropped_);
    return *overflow_;
  }

  std::vector<std::string> label_keys_;
  std::size_t max_series_;
  Factory factory_;
  Counter* dropped_;
  mutable std::mutex mutex_;
  std::map<LabelValues, std::unique_ptr<T>> series_;
  std::unique_ptr<T> overflow_;
};

}  // namespace vodbcast::obs
