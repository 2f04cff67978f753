#include "client/vcr.hpp"

#include <algorithm>

#include "util/contracts.hpp"
#include "util/math.hpp"

namespace vodbcast::client {

PauseAnalysis analyze_pause(const series::SegmentLayout& layout,
                            std::uint64_t t0, std::uint64_t pause_at,
                            std::uint64_t pause_slots) {
  const std::uint64_t total = layout.total_units();
  VB_EXPECTS(pause_at >= t0);
  VB_EXPECTS(pause_at < t0 + total);
  const auto playback_end = util::checked_add(t0 + total, pause_slots);
  VB_EXPECTS_MSG(playback_end.has_value(),
                 "pause analysis: t0 + total units + pause must fit in 64 "
                 "bits");

  const ReceptionPlan base = plan_reception(layout, t0);
  VB_EXPECTS_MSG(base.jitter_free,
                 "pause analysis requires a schedulable layout");

  PauseAnalysis analysis;
  analysis.peak_buffer_units_unpaused = base.max_buffer_units;

  // The loaders keep their schedule; the playback stops at pause_at and
  // resumes pause_slots later.
  const PlaybackInterval playback[] = {
      {t0, pause_at}, {pause_at + pause_slots, *playback_end}};
  analysis.paused_trace = build_trace(base.downloads, playback);
  analysis.peak_buffer_units_paused = analysis.paused_trace.max_level();
  // Pausing only postpones deadlines, so a jitter-free plan stays so.
  analysis.jitter_free = true;
  return analysis;
}

RejoinAnalysis plan_rejoin(const series::SegmentLayout& layout,
                           int first_missing_segment,
                           std::uint64_t position_units,
                           std::uint64_t requested_resume) {
  RejoinAnalysis analysis;
  analysis.requested_resume = requested_resume;
  analysis.refetched_segments =
      layout.segment_count() - first_missing_segment + 1;

  // Try successive resume slots until the just-in-time suffix schedule
  // meets every deadline. The schedule repeats with the layout's phase
  // period — a fully aligned resume is always feasible — so searching one
  // period (capped at 2^20 slots) is exhaustive.
  constexpr std::uint64_t kMaxWait = std::uint64_t{1} << 20;
  const std::uint64_t cap = phase_period(layout, kMaxWait).value_or(kMaxWait);
  for (std::uint64_t wait = 0; wait <= cap; ++wait) {
    const std::uint64_t resume = requested_resume + wait;
    auto downloads =
        jit_schedule(layout, first_missing_segment, position_units, resume);
    if (std::all_of(downloads.begin(), downloads.end(),
                    [](const SegmentDownload& d) {
                      return d.meets_deadline();
                    })) {
      analysis.actual_resume = resume;
      analysis.extra_wait = wait;
      analysis.suffix_plan.playback_start = resume;
      analysis.suffix_plan.downloads = std::move(downloads);
      analysis.suffix_plan.jitter_free = true;
      return analysis;
    }
  }
  VB_EXPECTS_MSG(false, "no feasible rejoin phase found within the cap");
  return analysis;  // unreachable
}

}  // namespace vodbcast::client
