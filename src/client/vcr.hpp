// VCR interactivity on top of periodic broadcast — the follow-on question
// the paper's introduction raises (subscribers expect pause/resume even
// though the channels keep looping regardless of any one client).
//
// Two strategies are modelled exactly, in the same integer units as the
// reception planner:
//
//  * keep-downloading: the loaders follow their original schedule through
//    the pause while the player idles; playback resumes instantly but the
//    buffer grows by up to the pause length (analyze_pause quantifies it).
//
//  * release-and-rejoin: the tuners are released at the pause; on resume
//    the client keeps every fully-downloaded segment and re-joins the
//    broadcasts of the rest just in time. Because broadcasts only start on
//    their own grid, resumption may have to wait for a phase where the
//    remaining suffix is two-loader schedulable (plan_rejoin finds the
//    minimal such wait).
#pragma once

#include <cstdint>

#include "client/reception_plan.hpp"
#include "series/segmentation.hpp"

namespace vodbcast::client {

/// Cost of pausing with the keep-downloading strategy.
struct PauseAnalysis {
  std::int64_t peak_buffer_units_unpaused = 0;
  std::int64_t peak_buffer_units_paused = 0;
  BufferTrace paused_trace;
  bool jitter_free = true;  ///< always true: deadlines only get later
};

/// A playback that started at t0 pauses at absolute slot `pause_at` for
/// `pause_slots`; loaders keep following the original plan.
/// Preconditions: t0 <= pause_at < t0 + total units, and t0 + total units +
/// pause_slots fits in 64 bits.
[[nodiscard]] PauseAnalysis analyze_pause(const series::SegmentLayout& layout,
                                          std::uint64_t t0,
                                          std::uint64_t pause_at,
                                          std::uint64_t pause_slots);

/// Result of the release-and-rejoin strategy.
struct RejoinAnalysis {
  std::uint64_t requested_resume = 0;  ///< when the viewer pressed play
  std::uint64_t actual_resume = 0;     ///< first slot with a feasible plan
  std::uint64_t extra_wait = 0;        ///< actual - requested
  ReceptionPlan suffix_plan;           ///< downloads for the refetched tail
  int refetched_segments = 0;
};

/// Plans resumption at video position `position_units` (a segment
/// boundary), given the set of segments already held (all with index <
/// `first_missing_segment`), wanting playback back at `requested_resume`.
/// Searches forward for the first resume slot whose just-in-time suffix
/// schedule (jit_schedule) is jitter-free. `suffix_plan` carries that
/// schedule's downloads, its resume slot as playback_start and
/// jitter_free; it has no trace. Preconditions: 1 <= first_missing_segment
/// <= K, position_units <= offset(first_missing_segment), and every resume
/// slot searched plus 2 * total units fits in 64 bits (jit_schedule's).
[[nodiscard]] RejoinAnalysis plan_rejoin(const series::SegmentLayout& layout,
                                         int first_missing_segment,
                                         std::uint64_t position_units,
                                         std::uint64_t requested_resume);

}  // namespace vodbcast::client
