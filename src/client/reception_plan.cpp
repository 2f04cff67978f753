#include "client/reception_plan.hpp"

#include <algorithm>
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

/// Precondition of both planners and of jit_schedule: every time a plan
/// holds fits in 64 bits. A download starts by its deadline (at most t0 +
/// total units) or within one period of its own after its loader frees up,
/// so no time exceeds t0 + 2 * total units.
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

/// Sweeps a planner over every distinct client phase (bounded by the lcm of
/// the channel periods, capped at max_phases).
template <typename Planner>
WorstCase sweep_phases(const series::SegmentLayout& layout,
                       std::uint64_t max_phases, Planner&& planner) {
  VB_EXPECTS(max_phases >= 1);
  const std::uint64_t phases =
      phase_period(layout, max_phases).value_or(max_phases);

  WorstCase result;
  result.phases_examined = phases;
  for (std::uint64_t t0 = 0; t0 < phases; ++t0) {
    const PlanSummary plan = planner(layout, t0).summary();
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

WorstCase worst_case_over_phases(const series::SegmentLayout& layout,
                                 std::uint64_t max_phases) {
  // All channel schedules repeat with period lcm(s_1, ..., s_K); beyond it
  // every playback phase t0 behaves identically to t0 mod lcm.
  return sweep_phases(layout, max_phases, plan_reception);
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
  return sweep_phases(layout, max_phases, plan_parallel_reception);
}

}  // namespace vodbcast::client
