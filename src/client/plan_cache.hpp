// Phase-keyed reception-plan cache — the metro-scale hot path.
//
// Every channel of an SB layout loops its segment aligned at multiples of
// the segment's size, so the whole broadcast schedule repeats with period
// P = lcm(s_1, ..., s_K) (the layout's *phase period*). plan_reception is a
// pure function of (layout, t0) whose integer arithmetic commutes with
// shifting t0 by any multiple of P:
//
//     plan_reception(layout, t0)
//       == shift(plan_reception(layout, t0 mod P), t0 - t0 mod P)
//
// where shift() adds the offset to every download start/deadline and the
// playback start, leaving the jitter verdict, tuner peak and buffer peak
// untouched (all are differences of times). A metropolitan simulation that
// recomputed the plan per arrival therefore pays O(arrivals * W log W) for
// results drawn from at most P distinct answers. The cache answers two
// kinds of lookup, each planning a phase once:
//
//   * summary(t0): the three verdicts (a PlanSummary), from one contiguous
//     table of 16-byte entries indexed by phase. A phase's first visit
//     runs plan_summary, which plans the verdicts from the layout's
//     transmission groups without building a plan (about 0.2 us a phase
//     at K = 80, where plan_reception takes about 8 us), so the table is
//     all the cache retains: 62 KB for SB:W=52's 3900 phases, where a
//     retained plan costs about 5 KB per phase.
//   * at(t0): the phase's canonical plan, retained on first visit and
//     served as a shifted *view* (no download-vector copy, no trace
//     rebuild), for callers that walk the downloads: tracing and fault
//     assessment.
//
// The phase-shift invariance itself is pinned independently of the cache by
// tests/test_plan_cache.cpp (property test over schemes, widths and
// offsets), so the cache can rely on it rather than re-verify per hit.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "client/reception_plan.hpp"
#include "series/segmentation.hpp"

namespace vodbcast::client {

/// A reception plan seen through a phase shift: all times offset by
/// `shift()`, everything else (jitter flag, tuner peak, buffer peak) read
/// straight from the canonical plan. Cheap to copy; does not own the plan.
class PlanView {
 public:
  PlanView() = default;
  PlanView(const ReceptionPlan& base, std::uint64_t shift, bool hit)
      : base_(&base), shift_(shift), hit_(hit) {}

  [[nodiscard]] bool valid() const noexcept { return base_ != nullptr; }
  [[nodiscard]] const ReceptionPlan& base() const noexcept { return *base_; }
  [[nodiscard]] std::uint64_t shift() const noexcept { return shift_; }
  /// True when the view was served from a cached canonical plan.
  [[nodiscard]] bool hit() const noexcept { return hit_; }

  [[nodiscard]] std::uint64_t playback_start() const noexcept {
    return base_->playback_start + shift_;
  }
  [[nodiscard]] bool jitter_free() const noexcept {
    return base_->jitter_free;
  }
  [[nodiscard]] int max_concurrent_downloads() const noexcept {
    return base_->max_concurrent_downloads;
  }
  [[nodiscard]] std::int64_t max_buffer_units() const noexcept {
    return base_->max_buffer_units;
  }
  [[nodiscard]] core::Mbits max_buffer(
      const series::SegmentLayout& layout) const {
    return base_->max_buffer(layout);
  }
  [[nodiscard]] PlanSummary summary() const noexcept {
    return base_->summary();
  }

  [[nodiscard]] std::size_t download_count() const noexcept {
    return base_->downloads.size();
  }
  /// The i-th download with start and deadline shifted into the view's
  /// absolute time frame (length, segment and loader are shift-invariant).
  [[nodiscard]] SegmentDownload download(std::size_t i) const {
    SegmentDownload d = base_->downloads[i];
    d.start += shift_;
    d.deadline += shift_;
    return d;
  }

  /// Materializes a standalone shifted ReceptionPlan (downloads and buffer
  /// trace rebased). Costs a full copy — for callers that outlive the
  /// cache, not for the per-arrival hot path.
  [[nodiscard]] ReceptionPlan materialize() const;

 private:
  const ReceptionPlan* base_ = nullptr;
  std::uint64_t shift_ = 0;
  bool hit_ = false;
};

/// Caches the plan verdicts of every arrival phase of a layout in one
/// table, and canonical plans for the phases at() visits.
///
/// Entries are computed lazily on a phase's first lookup and never evicted
/// (the entry count is bounded by the phase period, which is bounded by
/// `max_entries`). When the layout's phase period exceeds `max_entries`
/// the cache degrades to a pass-through: every lookup recomputes and
/// counts as a miss (at() into a scratch plan), so callers need no
/// fallback path.
///
/// View validity: a view served from a cached entry stays valid for the
/// cache's lifetime; a pass-through view only until the next at() call.
/// Not thread-safe — one cache per simulation run (parallel replications
/// each build their own, preserving the bit-identity contract).
class PlanCache {
 public:
  static constexpr std::uint64_t kDefaultMaxEntries = 1u << 16;

  struct Stats {
    std::uint64_t hits = 0;    ///< lookups of either kind served from storage
    std::uint64_t misses = 0;  ///< lookups that planned a phase
    std::size_t entries = 0;   ///< canonical plans retained by at()
    std::size_t bytes = 0;     ///< the summary table plus retained plans
  };

  explicit PlanCache(const series::SegmentLayout& layout,
                     std::uint64_t max_entries = kDefaultMaxEntries);

  /// False when the phase period exceeded the entry budget (pass-through
  /// mode: correctness preserved, no reuse).
  [[nodiscard]] bool enabled() const noexcept { return period_ != 0; }
  /// The layout's phase period P; 0 in pass-through mode.
  [[nodiscard]] std::uint64_t period() const noexcept { return period_; }

  /// True if the canonical plan for t0's phase is already materialized
  /// (at() on this t0 would be a hit). Cheap: one mod + one load.
  [[nodiscard]] bool contains(std::uint64_t t0) const noexcept;

  /// The reception plan for playback start `t0`, as a shifted view of the
  /// phase's canonical plan. Equal to plan_reception(layout, t0) in every
  /// observable field.
  [[nodiscard]] PlanView at(std::uint64_t t0);

  /// plan_summary(layout, t0), from the phase table. A hit once either
  /// lookup has planned t0's phase; retains no plan.
  [[nodiscard]] PlanSummary summary(std::uint64_t t0);

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  const series::SegmentLayout& layout_;
  std::uint64_t period_ = 0;  ///< 0 = pass-through
  /// By phase. A plan holds at least one download, so a zero tuner peak
  /// marks a phase not yet planned.
  std::vector<PlanSummary> summaries_;
  /// By phase; sized on the first at(), so summary-only use allocates the
  /// table alone.
  std::vector<std::unique_ptr<ReceptionPlan>> slots_;
  ReceptionPlan scratch_;  ///< pass-through result storage
  Stats stats_;
};

}  // namespace vodbcast::client
