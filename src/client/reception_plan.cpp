#include "client/reception_plan.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "util/contracts.hpp"
#include "util/math.hpp"

namespace vodbcast::client {

namespace {

/// Smallest multiple of `period` that is >= t.
std::uint64_t next_broadcast_start(std::uint64_t t, std::uint64_t period) {
  VB_ASSERT(period > 0);
  return ((t + period - 1) / period) * period;
}

/// The just-in-time join: the latest broadcast start that still meets the
/// deadline, unless the loader only frees up later (then the next start
/// after it becomes free -- necessarily late, and flagged as such).
///
/// This is the paper's client: Section 4 considers exactly one broadcast
/// period of candidate starts ending at each group's deadline (e.g. "the
/// possible times to start receiving group (2A+1,2A+1) are t, t+1, ...,
/// t+2A" -- one period of 2A+1). An eager loader that joined a full period
/// earlier would hold a whole extra group in the buffer and break the
/// 60*b*D1*(W-1) storage bound.
std::uint64_t jit_broadcast_start(std::uint64_t earliest,
                                  std::uint64_t deadline,
                                  std::uint64_t period) {
  VB_ASSERT(period > 0);
  const std::uint64_t jit = (deadline / period) * period;
  if (jit >= earliest) {
    return jit;
  }
  return next_broadcast_start(earliest, period);
}

/// One loader's transmission groups as runs (see plan_summary): the groups
/// of one parity in file order, each fetched back to back over
/// [start, start + size * length) from the just-in-time join of its first
/// segment. The cursor stands on one edge at a time: a run's start, then
/// its end, then the next run's start.
class LoaderRuns {
 public:
  LoaderRuns(const std::vector<series::TransmissionGroup>& groups,
             series::GroupParity parity, std::uint64_t t0)
      : next_(groups.data()),
        last_(groups.data() + groups.size()),
        parity_(parity),
        t0_(t0),
        end_(t0) {
    next_run();
  }

  [[nodiscard]] bool done() const noexcept { return done_; }
  /// True while the cursor stands on a run's end.
  [[nodiscard]] bool open() const noexcept { return open_; }
  [[nodiscard]] std::uint64_t edge() const noexcept {
    return open_ ? end_ : start_;
  }
  /// True once a run started after its first segment's deadline.
  [[nodiscard]] bool late() const noexcept { return late_; }

  /// Steps past the current edge.
  void pass() {
    open_ = !open_;
    if (!open_) {
      next_run();
    }
  }

 private:
  void next_run() {
    for (; next_ != last_ && next_->parity != parity_; ++next_) {
      offset_ += next_->total_units();
    }
    if (next_ == last_) {
      done_ = true;
      return;
    }
    // The loader is free from the end of its previous run (t0 at first).
    const std::uint64_t deadline = t0_ + offset_;
    start_ = jit_broadcast_start(end_, deadline, next_->size);
    late_ = late_ || start_ > deadline;
    end_ = start_ + next_->total_units();
    offset_ += next_->total_units();
    ++next_;
  }

  const series::TransmissionGroup* next_;
  const series::TransmissionGroup* last_;
  series::GroupParity parity_;
  std::uint64_t t0_;
  std::uint64_t offset_ = 0;  ///< playback offset of *next_
  std::uint64_t start_ = 0;
  std::uint64_t end_;
  bool open_ = false;
  bool late_ = false;
  bool done_ = false;
};

int peak_concurrency(const std::vector<SegmentDownload>& downloads) {
  std::vector<std::pair<std::uint64_t, int>> events;
  events.reserve(downloads.size() * 2);
  for (const auto& d : downloads) {
    events.emplace_back(d.start, +1);
    events.emplace_back(d.end(), -1);
  }
  // Ends sort before starts at equal times: back-to-back downloads on one
  // loader do not count as overlapping.
  std::sort(events.begin(), events.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) {
                return a.first < b.first;
              }
              return a.second < b.second;
            });
  int current = 0;
  int peak = 0;
  for (const auto& [time, delta] : events) {
    current += delta;
    peak = std::max(peak, current);
  }
  VB_ASSERT(current == 0);
  return peak;
}

/// Precondition of both planners, plan_summary and jit_schedule: every time
/// a plan holds fits in 64 bits. A download starts by its deadline (at most
/// t0 + total units) or within one period of its own after its loader frees
/// up, so no time exceeds t0 + 2 * total units.
void expect_plan_fits(const series::SegmentLayout& layout, std::uint64_t t0) {
  const std::uint64_t total = layout.total_units();
  const auto span = util::checked_add(total, total);
  VB_EXPECTS_MSG(span.has_value() && util::checked_add(t0, *span).has_value(),
                 "reception plan: t0 + 2 * total units must fit in 64 bits");
}

/// Fills in the derived fields (deadline check, tuner peak, buffer trace)
/// common to every planner.
void finalize_plan(ReceptionPlan& plan, const series::SegmentLayout& layout) {
  plan.jitter_free =
      std::all_of(plan.downloads.begin(), plan.downloads.end(),
                  [](const SegmentDownload& d) { return d.meets_deadline(); });
  plan.max_concurrent_downloads = peak_concurrency(plan.downloads);
  const PlaybackInterval playback[] = {
      {plan.playback_start, plan.playback_start + layout.total_units()}};
  plan.trace = build_trace(plan.downloads, playback);
  plan.max_buffer_units = plan.trace.max_level();
}

/// Sweeps a summary planner over every distinct client phase (bounded by the
/// lcm of the channel periods, capped at max_phases).
template <typename Planner>
WorstCase sweep_phases(const series::SegmentLayout& layout,
                       std::uint64_t max_phases, Planner&& planner) {
  VB_EXPECTS(max_phases >= 1);
  const std::uint64_t phases =
      phase_period(layout, max_phases).value_or(max_phases);

  WorstCase result;
  result.phases_examined = phases;
  for (std::uint64_t t0 = 0; t0 < phases; ++t0) {
    const PlanSummary plan = planner(layout, t0);
    if (!plan.jitter_free) {
      result.always_jitter_free = false;
    }
    result.max_concurrent_downloads =
        std::max(result.max_concurrent_downloads,
                 plan.max_concurrent_downloads);
    if (plan.max_buffer_units > result.max_buffer_units) {
      result.max_buffer_units = plan.max_buffer_units;
      result.worst_phase = t0;
    }
  }
  return result;
}

}  // namespace

std::optional<std::uint64_t> phase_period(const series::SegmentLayout& layout,
                                          std::uint64_t max_period) {
  std::uint64_t period = 1;
  for (const std::uint64_t s : layout.all_units()) {
    const auto next =
        util::checked_mul(period / util::gcd_u64(period, s), s);
    if (!next.has_value() || *next > max_period) {
      return std::nullopt;
    }
    period = *next;
  }
  return period;
}

std::vector<SegmentDownload> jit_schedule(const series::SegmentLayout& layout,
                                          int first_segment,
                                          std::uint64_t position_units,
                                          std::uint64_t resume) {
  VB_EXPECTS(first_segment >= 1 && first_segment <= layout.segment_count());
  VB_EXPECTS(position_units <= layout.playback_offset_units(first_segment));
  expect_plan_fits(layout, resume);
  std::vector<SegmentDownload> downloads;
  downloads.reserve(
      static_cast<std::size_t>(layout.segment_count() - first_segment + 1));

  // Loader availability; both routines are free from `resume`, the
  // earliest joinable broadcast start (for a fresh client, t0 is the next
  // Segment-1 start).
  std::uint64_t free_at[2] = {resume, resume};

  for (const auto& group : layout.groups()) {
    const auto loader =
        group.parity == series::GroupParity::kOdd ? LoaderId::kOdd
                                                  : LoaderId::kEven;
    auto& free = free_at[loader == LoaderId::kOdd ? 0 : 1];
    for (int s = std::max(group.first_segment, first_segment);
         s < group.first_segment + group.length; ++s) {
      const std::uint64_t size = layout.units(s);
      VB_ASSERT(size == group.size);
      const std::uint64_t deadline =
          resume + (layout.playback_offset_units(s) - position_units);
      const std::uint64_t start = jit_broadcast_start(free, deadline, size);
      downloads.push_back(SegmentDownload{
          .segment = s,
          .loader = loader,
          .start = start,
          .length = size,
          .deadline = deadline,
      });
      free = start + size;
    }
  }
  return downloads;
}

BufferTrace build_trace(std::span<const SegmentDownload> downloads,
                        std::span<const PlaybackInterval> playback) {
  // Occupancy is piecewise linear: each download contributes fill rate +1
  // over [start, end), each playback interval drains at -1. One sort plus a
  // single accumulating sweep over the rate deltas visits each breakpoint
  // once, with the same integer levels a per-breakpoint rescan of every
  // download computes.
  std::vector<std::pair<std::uint64_t, std::int64_t>> events;
  events.reserve(downloads.size() * 2 + playback.size() * 2);
  for (const auto& d : downloads) {
    events.emplace_back(d.start, std::int64_t{1});
    events.emplace_back(d.end(), std::int64_t{-1});
  }
  for (const auto& interval : playback) {
    VB_EXPECTS(interval.begin <= interval.end);
    events.emplace_back(interval.begin, std::int64_t{-1});
    events.emplace_back(interval.end, std::int64_t{1});
  }
  std::sort(events.begin(), events.end());

  std::vector<BufferPoint> points;
  points.reserve(events.size());
  std::int64_t level = 0;
  std::int64_t rate = 0;
  std::uint64_t prev = events.empty() ? 0 : events.front().first;
  for (std::size_t i = 0; i < events.size();) {
    const std::uint64_t t = events[i].first;
    level += rate * static_cast<std::int64_t>(t - prev);
    while (i < events.size() && events[i].first == t) {
      rate += events[i].second;
      ++i;
    }
    points.push_back(BufferPoint{.time = t, .level = level});
    prev = t;
  }
  VB_ASSERT(rate == 0);
  return BufferTrace(std::move(points));
}

ReceptionPlan plan_reception(const series::SegmentLayout& layout,
                             std::uint64_t t0) {
  ReceptionPlan plan;
  plan.playback_start = t0;
  plan.downloads = jit_schedule(layout, 1, 0, t0);
  finalize_plan(plan, layout);
  return plan;
}

PlanSummary plan_summary(const series::SegmentLayout& layout,
                         std::uint64_t t0) {
  expect_plan_fits(layout, t0);
  LoaderRuns runs[] = {
      LoaderRuns(layout.groups(), series::GroupParity::kOdd, t0),
      LoaderRuns(layout.groups(), series::GroupParity::kEven, t0)};
  // The playback drains at rate 1 over [t0, t0 + total); no download starts
  // before t0, so t0 is the first edge and the level there is 0.
  const std::uint64_t playback[] = {t0, t0 + layout.total_units()};
  int played = 0;  // playback edges passed
  PlanSummary summary;
  std::int64_t level = 0;
  std::int64_t rate = 0;
  int tuners = 0;
  std::uint64_t prev = t0;
  while (played < 2 || !runs[0].done() || !runs[1].done()) {
    std::uint64_t t = played < 2 ? playback[played]
                                 : std::numeric_limits<std::uint64_t>::max();
    for (const auto& run : runs) {
      if (!run.done()) {
        t = std::min(t, run.edge());
      }
    }
    level += rate * static_cast<std::int64_t>(t - prev);
    summary.max_buffer_units = std::max(summary.max_buffer_units, level);
    prev = t;
    // Ends before starts: a run that begins as another ends does not
    // overlap it.
    for (auto& run : runs) {
      if (!run.done() && run.open() && run.edge() == t) {
        run.pass();
        --tuners;
        --rate;
      }
    }
    if (played < 2 && playback[played] == t) {
      rate += played == 0 ? -1 : 1;
      ++played;
    }
    for (auto& run : runs) {
      if (!run.done() && !run.open() && run.edge() == t) {
        run.pass();
        ++tuners;
        ++rate;
      }
    }
    summary.max_concurrent_downloads =
        std::max(summary.max_concurrent_downloads, tuners);
  }
  VB_ASSERT(rate == 0 && tuners == 0);
  summary.jitter_free = !runs[0].late() && !runs[1].late();
  return summary;
}

WorstCase worst_case_over_phases(const series::SegmentLayout& layout,
                                 std::uint64_t max_phases) {
  // All channel schedules repeat with period lcm(s_1, ..., s_K); beyond it
  // every playback phase t0 behaves identically to t0 mod lcm.
  return sweep_phases(layout, max_phases, plan_summary);
}

ReceptionPlan plan_parallel_reception(const series::SegmentLayout& layout,
                                      std::uint64_t t0) {
  expect_plan_fits(layout, t0);
  ReceptionPlan plan;
  plan.playback_start = t0;
  for (int s = 1; s <= layout.segment_count(); ++s) {
    const std::uint64_t size = layout.units(s);
    // A dedicated tuner per channel: join the first broadcast at or after
    // the client's start, eagerly (Fast Broadcasting's reception rule).
    const std::uint64_t start = next_broadcast_start(t0, size);
    plan.downloads.push_back(SegmentDownload{
        .segment = s,
        // Loader ids are meaningless with one tuner per channel; tag by
        // channel parity for display purposes.
        .loader = s % 2 == 1 ? LoaderId::kOdd : LoaderId::kEven,
        .start = start,
        .length = size,
        .deadline = t0 + layout.playback_offset_units(s),
    });
  }
  finalize_plan(plan, layout);
  return plan;
}

WorstCase parallel_worst_case_over_phases(const series::SegmentLayout& layout,
                                          std::uint64_t max_phases) {
  return sweep_phases(layout, max_phases,
                      [](const series::SegmentLayout& l, std::uint64_t t0) {
                        return plan_parallel_reception(l, t0).summary();
                      });
}

}  // namespace vodbcast::client
