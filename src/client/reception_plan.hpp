// Exact reception planning for Skyscraper Broadcasting clients
// (paper Sections 3.3 and 4).
//
// SB's correctness argument is number-theoretic: with channel i looping
// segment i (relative size s_i, in units of D1) aligned at multiples of s_i,
// the Odd and Even Loaders can always join broadcasts early enough that the
// Video Player never stalls, using at most two concurrent tuners and at most
// 60*b*D1*(W-1) Mbits of buffer. This module computes, for a client whose
// playback starts at integer time t0, the exact download schedule those
// loaders produce, then verifies jitter-freedom, tuner count and peak buffer
// directly from it. All arithmetic is integral, so the Figure 1-4 scenarios
// are reproduced bit-exactly.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "client/buffer_trace.hpp"
#include "series/segmentation.hpp"

namespace vodbcast::client {

/// Which service routine (paper Section 3.3) fetches a group.
enum class LoaderId { kOdd, kEven };

/// One planned segment download (the loaders download group members
/// back-to-back, so a group of length L yields L consecutive entries on the
/// same loader).
struct SegmentDownload {
  int segment = 0;            ///< 1-based segment index
  LoaderId loader = LoaderId::kOdd;
  std::uint64_t start = 0;    ///< download start (broadcast start joined)
  std::uint64_t length = 0;   ///< segment size = download duration, units
  std::uint64_t deadline = 0; ///< playback start of this segment

  [[nodiscard]] std::uint64_t end() const noexcept { return start + length; }
  /// Jitter-freedom for one segment: download and playback both run at the
  /// display rate, so every byte arrives in time iff the download starts no
  /// later than the segment's playback start.
  [[nodiscard]] bool meets_deadline() const noexcept {
    return start <= deadline;
  }
};

/// The complete plan plus the derived correctness/storage verdicts.
struct ReceptionPlan {
  std::uint64_t playback_start = 0;  ///< t0, units since broadcast epoch
  std::vector<SegmentDownload> downloads;
  bool jitter_free = false;           ///< all deadlines met
  int max_concurrent_downloads = 0;   ///< peak simultaneous tuners
  std::int64_t max_buffer_units = 0;  ///< peak buffer, units of D1 data
  BufferTrace trace;                  ///< exact occupancy breakpoints

  /// Peak buffer converted to Mbits for a given layout.
  [[nodiscard]] core::Mbits max_buffer(const series::SegmentLayout& layout) const {
    return layout.video().display_rate * layout.unit_duration() *
           static_cast<double>(max_buffer_units);
  }
};

/// Plans reception for a client whose playback starts at integer time `t0`
/// (units of D1 since the broadcast epoch; a client arriving at real time a
/// starts playback at t0 = ceil(a), the next Segment-1 broadcast).
///
/// The loader policy is the paper's: odd groups on the Odd Loader, even
/// groups on the Even Loader; each loader fetches its groups in file order,
/// one segment at a time in its entirety, joining the broadcast just in
/// time -- the latest start that still meets the segment's playback
/// deadline (Section 4 analyses exactly one broadcast period of candidate
/// starts ending at each deadline). Joining any earlier would hold a whole
/// extra group in the buffer and void the 60*b*D1*(W-1) storage bound.
[[nodiscard]] ReceptionPlan plan_reception(const series::SegmentLayout& layout,
                                           std::uint64_t t0);

/// Phase period of a layout: lcm of the per-channel slot periods (= the
/// relative segment sizes). nullopt when the lcm overflows 64 bits or
/// exceeds `max_period` — then the layout has more distinct phases than the
/// caller is willing to enumerate.
[[nodiscard]] std::optional<std::uint64_t> phase_period(
    const series::SegmentLayout& layout, std::uint64_t max_period);

/// Worst case over all distinct arrival phases. The schedule of channel i is
/// periodic with period s_i, so every behaviour repeats with period
/// lcm(s_1..s_K); sweeping t0 over [0, lcm) (capped at `max_phases`, as the
/// lcm is bounded by W * (largest odd size) for capped layouts) covers every
/// reachable scenario.
struct WorstCase {
  std::int64_t max_buffer_units = 0;
  std::uint64_t worst_phase = 0;   ///< a t0 attaining the buffer peak
  bool always_jitter_free = true;
  int max_concurrent_downloads = 0;
  std::uint64_t phases_examined = 0;
};
[[nodiscard]] WorstCase worst_case_over_phases(
    const series::SegmentLayout& layout, std::uint64_t max_phases = 1 << 16);

/// Reception planning for the Fast Broadcasting client (Juhn & Tseng), one
/// of the follow-on protocols this library implements alongside SB: the
/// client owns one tuner PER channel and joins, on channel i, the first
/// broadcast of segment i starting at or after t0. With the doubling series
/// [1, 2, 4, ...] that start is never later than the segment's playback
/// deadline, so playback is jitter-free at the cost of up to K concurrent
/// downloads and roughly half the video buffered.
[[nodiscard]] ReceptionPlan plan_parallel_reception(
    const series::SegmentLayout& layout, std::uint64_t t0);

/// Worst case of the parallel (K-tuner) client over client phases.
[[nodiscard]] WorstCase parallel_worst_case_over_phases(
    const series::SegmentLayout& layout, std::uint64_t max_phases = 1 << 16);

}  // namespace vodbcast::client
