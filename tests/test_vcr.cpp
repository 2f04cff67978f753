#include "client/vcr.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "series/broadcast_series.hpp"
#include "util/contracts.hpp"

namespace vodbcast::client {
namespace {

series::SegmentLayout make_layout(int k,
                                  std::uint64_t width = series::kUncapped) {
  static const series::SkyscraperSeries law;
  return series::SegmentLayout(
      law, k, width,
      core::VideoParams{core::Minutes{120.0}, core::MbitPerSec{1.5}});
}

TEST(PauseTest, ZeroLengthPauseChangesNothing) {
  const auto layout = make_layout(7);
  const auto analysis = analyze_pause(layout, 4, 10, 0);
  EXPECT_EQ(analysis.peak_buffer_units_paused,
            analysis.peak_buffer_units_unpaused);
  EXPECT_TRUE(analysis.jitter_free);
}

TEST(PauseTest, PausingGrowsTheBuffer) {
  const auto layout = make_layout(7);
  const auto analysis = analyze_pause(layout, 4, 10, 8);
  EXPECT_GT(analysis.peak_buffer_units_paused,
            analysis.peak_buffer_units_unpaused);
}

TEST(PauseTest, BufferGrowthBoundedByPauseLength) {
  const auto layout = make_layout(9);
  for (const std::uint64_t len : {1U, 3U, 7U, 20U}) {
    const auto analysis = analyze_pause(layout, 2, 9, len);
    EXPECT_LE(analysis.peak_buffer_units_paused,
              analysis.peak_buffer_units_unpaused +
                  static_cast<std::int64_t>(len))
        << "len = " << len;
  }
}

TEST(PauseTest, LongPauseAbsorbsTheWholeRemainder) {
  // Pause long enough and every remaining byte is downloaded while the
  // player idles: the peak approaches video-remaining at the pause point.
  const auto layout = make_layout(5);  // 15 units
  const std::uint64_t t0 = 4;
  const std::uint64_t pause_at = 6;   // 2 units consumed
  const auto analysis = analyze_pause(layout, t0, pause_at, 100);
  EXPECT_EQ(analysis.peak_buffer_units_paused, 13);  // 15 - 2
}

TEST(PauseTest, TraceDrainsToZero) {
  const auto layout = make_layout(7);
  const auto analysis = analyze_pause(layout, 3, 8, 5);
  ASSERT_FALSE(analysis.paused_trace.points().empty());
  EXPECT_EQ(analysis.paused_trace.points().back().level, 0);
}

TEST(PauseTest, RejectsPauseOutsidePlayback) {
  const auto layout = make_layout(5);
  EXPECT_THROW((void)analyze_pause(layout, 4, 3, 1),
               util::ContractViolation);
  EXPECT_THROW((void)analyze_pause(layout, 4, 4 + 15, 1),
               util::ContractViolation);
}

// Playback times are t0 plus offsets in unsigned 64-bit arithmetic: a
// pause whose resumed playback would end past 2^64 - 1 is rejected, not
// wrapped round to a resume before the pause (K = 6, W = 12: 27 units).
TEST(PauseTest, RejectsPausesWhosePlaybackOverflows) {
  const auto layout = make_layout(6, 12);
  ASSERT_EQ(layout.total_units(), 27U);
  const std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
  EXPECT_THROW((void)analyze_pause(layout, 4, 10, max - 5),
               util::ContractViolation);
  EXPECT_THROW((void)analyze_pause(layout, 4, 10, max - 4 - 27 + 1),
               util::ContractViolation);
  // The largest pause whose playback still ends in range is analysed.
  const auto analysis = analyze_pause(layout, 4, 10, max - 4 - 27);
  EXPECT_EQ(analysis.paused_trace.points().back().level, 0);
}

TEST(RejoinTest, AlignedResumeNeedsNoWait) {
  const auto layout = make_layout(5);  // 1,2,2,5,5; suffix from segment 4
  // Segment 4's broadcasts start at multiples of 5; resuming at one of them
  // with position = offset(4) = 5 is immediately feasible.
  const auto analysis = plan_rejoin(layout, 4, 5, 10);
  EXPECT_EQ(analysis.extra_wait, 0U);
  EXPECT_EQ(analysis.actual_resume, 10U);
  EXPECT_TRUE(analysis.suffix_plan.jitter_free);
  EXPECT_EQ(analysis.refetched_segments, 2);
}

TEST(RejoinTest, MisalignedResumeWaits) {
  const auto layout = make_layout(5);
  // Resuming at 11 cannot start segment 4's download (multiples of 5) in
  // time; the planner must defer.
  const auto analysis = plan_rejoin(layout, 4, 5, 11);
  EXPECT_GT(analysis.extra_wait, 0U);
  EXPECT_TRUE(analysis.suffix_plan.jitter_free);
  // Never worse than one hyper-period.
  EXPECT_LE(analysis.extra_wait, 10U);
}

TEST(RejoinTest, EveryResumePhaseTerminates) {
  const auto layout = make_layout(9);
  for (std::uint64_t resume = 0; resume < 40; ++resume) {
    const auto analysis = plan_rejoin(layout, 6, 15, resume);
    EXPECT_TRUE(analysis.suffix_plan.jitter_free) << resume;
    for (const auto& d : analysis.suffix_plan.downloads) {
      EXPECT_GE(d.segment, 6) << resume;
      EXPECT_EQ(d.start % d.length, 0U) << resume;
    }
  }
}

TEST(RejoinTest, RestartFromBeginningMatchesFreshPlan) {
  // Rejoining with nothing retained at position 0 is exactly a fresh
  // client: wait 0 and the standard plan.
  const auto layout = make_layout(7);
  const auto analysis = plan_rejoin(layout, 1, 0, 6);
  EXPECT_EQ(analysis.extra_wait, 0U);
  const auto fresh = plan_reception(layout, 6);
  ASSERT_EQ(analysis.suffix_plan.downloads.size(), fresh.downloads.size());
  for (std::size_t i = 0; i < fresh.downloads.size(); ++i) {
    EXPECT_EQ(analysis.suffix_plan.downloads[i].start,
              fresh.downloads[i].start)
        << i;
  }
}

// Rejoining from the start with nothing held is a fresh client at the
// resume slot the search settles on, for every requested phase.
TEST(RejoinTest, RejoinFromTheStartIsAFreshPlanAtTheActualResume) {
  const auto layout = make_layout(10, 12);
  for (std::uint64_t requested = 0; requested < 150; ++requested) {
    const auto rejoin = plan_rejoin(layout, 1, 0, requested);
    const auto fresh = plan_reception(layout, rejoin.actual_resume);
    const auto& got = rejoin.suffix_plan.downloads;
    ASSERT_EQ(got.size(), fresh.downloads.size()) << requested;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].segment, fresh.downloads[i].segment) << requested;
      EXPECT_EQ(got[i].loader, fresh.downloads[i].loader) << requested;
      EXPECT_EQ(got[i].start, fresh.downloads[i].start) << requested;
      EXPECT_EQ(got[i].length, fresh.downloads[i].length) << requested;
      EXPECT_EQ(got[i].deadline, fresh.downloads[i].deadline) << requested;
    }
  }
}

// A resume slot whose suffix schedule would pass 2^64 - 1 is rejected, not
// wrapped round to a resume at slot 0 with downloads in the past.
TEST(RejoinTest, RejectsResumesWhoseScheduleOverflows) {
  const auto layout = make_layout(6, 12);  // 1,2,2,5,5,12: 27 units
  const std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
  EXPECT_THROW((void)plan_rejoin(layout, 4, 5, max - 3),
               util::ContractViolation);
  EXPECT_THROW((void)plan_rejoin(layout, 4, 5, max - 2 * 27 + 1),
               util::ContractViolation);
}

TEST(RejoinTest, RejectsBadArguments) {
  const auto layout = make_layout(5);
  EXPECT_THROW((void)plan_rejoin(layout, 0, 0, 0), util::ContractViolation);
  EXPECT_THROW((void)plan_rejoin(layout, 6, 0, 0), util::ContractViolation);
  EXPECT_THROW((void)plan_rejoin(layout, 2, 99, 0), util::ContractViolation);
}

}  // namespace
}  // namespace vodbcast::client
