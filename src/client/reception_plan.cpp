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

BufferTrace build_trace(const std::vector<SegmentDownload>& downloads,
                        std::uint64_t t0, std::uint64_t total_units) {
  // Occupancy is piecewise linear: each download contributes fill rate +1
  // over [start, end), playback drains at -1 over [t0, t0 + total_units).
  // One sort plus a single accumulating sweep over the rate deltas visits
  // each breakpoint once; the levels are the same integer sums the old
  // per-breakpoint rescan computed, so the points are bit-identical.
  std::vector<std::pair<std::uint64_t, std::int64_t>> events;
  events.reserve(downloads.size() * 2 + 2);
  for (const auto& d : downloads) {
    events.emplace_back(d.start, std::int64_t{1});
    events.emplace_back(d.end(), std::int64_t{-1});
  }
  events.emplace_back(t0, std::int64_t{-1});
  events.emplace_back(t0 + total_units, std::int64_t{1});
  std::sort(events.begin(), events.end());

  std::vector<BufferPoint> points;
  points.reserve(events.size());
  std::int64_t level = 0;
  std::int64_t rate = 0;
  std::uint64_t prev = events.front().first;
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

/// Fills in the derived fields (deadline check, tuner peak, buffer trace)
/// common to every planner.
void finalize_plan(ReceptionPlan& plan, const series::SegmentLayout& layout) {
  plan.jitter_free =
      std::all_of(plan.downloads.begin(), plan.downloads.end(),
                  [](const SegmentDownload& d) { return d.meets_deadline(); });
  plan.max_concurrent_downloads = peak_concurrency(plan.downloads);
  plan.trace =
      build_trace(plan.downloads, plan.playback_start, layout.total_units());
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
    const ReceptionPlan plan = planner(layout, t0);
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

ReceptionPlan plan_reception(const series::SegmentLayout& layout,
                             std::uint64_t t0) {
  ReceptionPlan plan;
  plan.playback_start = t0;

  // Loader availability; both routines exist from client arrival, and the
  // earliest joinable broadcast start is t0 (the next Segment-1 start).
  std::uint64_t free_at[2] = {t0, t0};

  for (const auto& group : layout.groups()) {
    const auto loader =
        group.parity == series::GroupParity::kOdd ? LoaderId::kOdd
                                                  : LoaderId::kEven;
    auto& free = free_at[loader == LoaderId::kOdd ? 0 : 1];
    for (int s = group.first_segment;
         s < group.first_segment + group.length; ++s) {
      const std::uint64_t size = layout.units(s);
      VB_ASSERT(size == group.size);
      const std::uint64_t deadline = t0 + layout.playback_offset_units(s);
      const std::uint64_t start = jit_broadcast_start(free, deadline, size);
      plan.downloads.push_back(SegmentDownload{
          .segment = s,
          .loader = loader,
          .start = start,
          .length = size,
          .deadline = deadline,
      });
      free = start + size;
    }
  }

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
