#include "client/reception_plan.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <set>

#include "series/broadcast_series.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace vodbcast::client {
namespace {

series::SegmentLayout make_layout(int k,
                                  std::uint64_t width = series::kUncapped) {
  static const series::SkyscraperSeries law;
  return series::SegmentLayout(
      law, k, width,
      core::VideoParams{core::Minutes{120.0}, core::MbitPerSec{1.5}});
}

TEST(ReceptionPlanTest, Figure1aOddStartNeedsNoBuffer) {
  // Paper Figure 1(a): playback starting at an odd time plays both groups
  // straight off the channels -- no disk needed.
  const auto layout = make_layout(3);
  const auto plan = plan_reception(layout, 1);
  EXPECT_TRUE(plan.jitter_free);
  EXPECT_EQ(plan.max_buffer_units, 0);
  // Segment 2's broadcast starts exactly at its playback time.
  EXPECT_EQ(plan.downloads[1].start, 2U);
  EXPECT_EQ(plan.downloads[1].deadline, 2U);
}

TEST(ReceptionPlanTest, Figure1bEvenStartNeedsOneUnit) {
  // Paper Figure 1(b): playback starting at an even time must prefetch one
  // unit: buffer 60*b*D1.
  const auto layout = make_layout(3);
  const auto plan = plan_reception(layout, 2);
  EXPECT_TRUE(plan.jitter_free);
  EXPECT_EQ(plan.max_buffer_units, 1);
  // Segment 2 is prefetched starting at t0 while segment 1 plays.
  EXPECT_EQ(plan.downloads[1].start, 2U);
  EXPECT_EQ(plan.downloads[1].deadline, 3U);
}

TEST(ReceptionPlanTest, DownloadsJoinOnlyBroadcastStarts) {
  const auto layout = make_layout(9);
  for (std::uint64_t t0 = 0; t0 < 64; ++t0) {
    const auto plan = plan_reception(layout, t0);
    for (const auto& d : plan.downloads) {
      EXPECT_EQ(d.start % d.length, 0U)
          << "segment " << d.segment << " at t0=" << t0;
      EXPECT_GE(d.start, t0);
    }
  }
}

TEST(ReceptionPlanTest, LoaderAssignmentByGroupParity) {
  const auto layout = make_layout(7);  // 1,2,2,5,5,12,12
  const auto plan = plan_reception(layout, 0);
  ASSERT_EQ(plan.downloads.size(), 7U);
  EXPECT_EQ(plan.downloads[0].loader, LoaderId::kOdd);   // size 1
  EXPECT_EQ(plan.downloads[1].loader, LoaderId::kEven);  // size 2
  EXPECT_EQ(plan.downloads[2].loader, LoaderId::kEven);
  EXPECT_EQ(plan.downloads[3].loader, LoaderId::kOdd);   // size 5
  EXPECT_EQ(plan.downloads[4].loader, LoaderId::kOdd);
  EXPECT_EQ(plan.downloads[5].loader, LoaderId::kEven);  // size 12
  EXPECT_EQ(plan.downloads[6].loader, LoaderId::kEven);
}

TEST(ReceptionPlanTest, LoaderDownloadsAreSequential) {
  const auto layout = make_layout(11);
  for (const std::uint64_t t0 : {0U, 3U, 7U, 12U, 25U}) {
    const auto plan = plan_reception(layout, t0);
    std::uint64_t free_odd = 0;
    std::uint64_t free_even = 0;
    for (const auto& d : plan.downloads) {
      auto& free = d.loader == LoaderId::kOdd ? free_odd : free_even;
      EXPECT_GE(d.start, free) << "segment " << d.segment << " t0=" << t0;
      free = d.end();
    }
  }
}

TEST(ReceptionPlanTest, WorstCaseBufferForK5IsFourUnits) {
  // Layout 1,2,2,5,5: the binding transition is (2,2) -> (5,5) with A = 2,
  // whose Figure-2 bound is 2A = 4 units.
  const auto layout = make_layout(5);
  const auto worst = worst_case_over_phases(layout);
  EXPECT_TRUE(worst.always_jitter_free);
  EXPECT_EQ(worst.max_buffer_units, 4);
  EXPECT_LE(worst.max_concurrent_downloads, 2);
}

TEST(ReceptionPlanTest, CappedLayoutRespectsWidthBound) {
  // Capped at W: the paper's storage requirement is 60*b*D1*(W-1), i.e.
  // W - 1 units.
  for (const std::uint64_t w : {std::uint64_t{2}, std::uint64_t{5},
                                std::uint64_t{12}}) {
    const auto layout = make_layout(12, w);
    const auto worst = worst_case_over_phases(layout);
    EXPECT_TRUE(worst.always_jitter_free) << "w = " << w;
    EXPECT_LE(worst.max_buffer_units, static_cast<std::int64_t>(w) - 1)
        << "w = " << w;
  }
}

TEST(ReceptionPlanTest, WidthTwoAchievesExactlyOneUnit) {
  const auto layout = make_layout(10, 2);
  const auto worst = worst_case_over_phases(layout);
  EXPECT_EQ(worst.max_buffer_units, 1);
}

// Plan times are t0 plus offsets in unsigned 64-bit arithmetic: a phase
// whose plan would pass 2^64 - 1 is rejected, not wrapped round to a
// download over [2^64 - 1, 0). The largest accepted phase plans like its
// phase modulo the schedule's period.
TEST(ReceptionPlanTest, RejectsPhasesWhosePlanOverflows) {
  const auto layout = make_layout(10, 12);
  const std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
  EXPECT_THROW((void)plan_reception(layout, max), util::ContractViolation);
  EXPECT_THROW((void)plan_parallel_reception(layout, max),
               util::ContractViolation);
  const std::uint64_t last = max - 2 * layout.total_units();
  EXPECT_THROW((void)plan_reception(layout, last + 1),
               util::ContractViolation);
  const auto period = phase_period(layout, max);
  ASSERT_TRUE(period.has_value());
  const auto plan = plan_reception(layout, last);
  const auto twin = plan_reception(layout, last % *period);
  EXPECT_EQ(plan.jitter_free, twin.jitter_free);
  EXPECT_EQ(plan.max_buffer_units, twin.max_buffer_units);
  EXPECT_EQ(plan.max_concurrent_downloads, twin.max_concurrent_downloads);
  EXPECT_EQ(plan_parallel_reception(layout, last).max_buffer_units,
            plan_parallel_reception(layout, last % *period).max_buffer_units);
}

TEST(ReceptionPlanTest, MaxBufferMbitsConversion) {
  const auto layout = make_layout(3);  // D1 = 24 min
  const auto plan = plan_reception(layout, 2);
  // 1 unit * 60 s * 1.5 Mb/s * 24 min = 2160 Mbits.
  EXPECT_NEAR(plan.max_buffer(layout).v, 2160.0, 1e-9);
}

TEST(ReceptionPlanTest, TraceStartsAndEndsEmpty) {
  const auto layout = make_layout(7);
  for (const std::uint64_t t0 : {0U, 1U, 5U, 9U}) {
    const auto plan = plan_reception(layout, t0);
    ASSERT_TRUE(plan.jitter_free);
    ASSERT_FALSE(plan.trace.points().empty());
    EXPECT_EQ(plan.trace.points().back().level, 0)
        << "all data must be drained at playback end, t0=" << t0;
  }
}

TEST(ReceptionPlanTest, DeadlinesArePlaybackOffsets) {
  const auto layout = make_layout(5);
  const auto plan = plan_reception(layout, 9);
  for (const auto& d : plan.downloads) {
    EXPECT_EQ(d.deadline, 9 + layout.playback_offset_units(d.segment));
  }
}

TEST(ReceptionPlanTest, WorstCaseCoversWholeHyperPeriod) {
  const auto layout = make_layout(5);  // lcm(1,2,5) = 10
  const auto worst = worst_case_over_phases(layout);
  EXPECT_EQ(worst.phases_examined, 10U);
}

TEST(ReceptionPlanTest, WorstCasePhaseCapRespected) {
  const auto layout = make_layout(13);  // lcm includes 105 -> large
  const auto worst = worst_case_over_phases(layout, 32);
  EXPECT_EQ(worst.phases_examined, 32U);
}

// Reference trace builder: the pre-rewrite O(breakpoints * W) form that
// rescans every download per breakpoint, drained by any list of playback
// intervals. The production build_trace is a single event-sweep with
// running rate deltas; the regressions below pin the two bit-identical
// over a full W=52 phase sweep, paused playback and two-group accounting.
BufferTrace reference_trace(const std::vector<SegmentDownload>& downloads,
                            const std::vector<PlaybackInterval>& playback) {
  std::set<std::uint64_t> breakpoints;
  for (const auto& interval : playback) {
    breakpoints.insert(interval.begin);
    breakpoints.insert(interval.end);
  }
  for (const auto& d : downloads) {
    breakpoints.insert(d.start);
    breakpoints.insert(d.end());
  }
  std::vector<BufferPoint> points;
  for (const std::uint64_t t : breakpoints) {
    std::int64_t downloaded = 0;
    for (const auto& d : downloads) {
      const std::uint64_t progress =
          t <= d.start ? 0 : std::min(t - d.start, d.length);
      downloaded += static_cast<std::int64_t>(progress);
    }
    std::uint64_t consumed = 0;
    for (const auto& interval : playback) {
      consumed += t <= interval.begin
                      ? 0
                      : std::min(t - interval.begin,
                                 interval.end - interval.begin);
    }
    points.push_back(BufferPoint{
        .time = t,
        .level = downloaded - static_cast<std::int64_t>(consumed),
    });
  }
  return BufferTrace(std::move(points));
}

/// The reference for one uninterrupted playback of `total_units` from t0.
BufferTrace reference_trace(const std::vector<SegmentDownload>& downloads,
                            std::uint64_t t0, std::uint64_t total_units) {
  return reference_trace(downloads, {{t0, t0 + total_units}});
}

/// Asserts that the sweep and the rescan agree point for point.
void expect_sweep_matches_reference(
    const std::vector<SegmentDownload>& downloads,
    const std::vector<PlaybackInterval>& playback) {
  const auto sweep = build_trace(downloads, playback);
  const auto reference = reference_trace(downloads, playback);
  ASSERT_EQ(sweep.points().size(), reference.points().size());
  for (std::size_t i = 0; i < reference.points().size(); ++i) {
    ASSERT_EQ(sweep.points()[i].time, reference.points()[i].time) << i;
    ASSERT_EQ(sweep.points()[i].level, reference.points()[i].level) << i;
  }
}

TEST(ReceptionPlanTest, EventSweepTraceMatchesReferenceRescanAtW52) {
  const auto layout = make_layout(10, 52);
  // Every distinct arrival phase of the W=52 layout (period 3900), plus the
  // parallel (Fast Broadcasting) planner's traces for good measure.
  for (std::uint64_t t0 = 0; t0 < 3900; ++t0) {
    const auto plan = plan_reception(layout, t0);
    const auto reference =
        reference_trace(plan.downloads, t0, layout.total_units());
    ASSERT_EQ(plan.trace.points().size(), reference.points().size())
        << "t0 = " << t0;
    for (std::size_t i = 0; i < reference.points().size(); ++i) {
      ASSERT_EQ(plan.trace.points()[i].time, reference.points()[i].time)
          << "t0 = " << t0 << " i = " << i;
      ASSERT_EQ(plan.trace.points()[i].level, reference.points()[i].level)
          << "t0 = " << t0 << " i = " << i;
    }
    EXPECT_EQ(plan.max_buffer_units, reference.max_level());
  }
}

// Keep-downloading pause (client::analyze_pause): the playback stops at
// pause_at and resumes `pause` slots later, while the downloads stay put.
TEST(ReceptionPlanTest, EventSweepTraceMatchesReferenceForPausedPlayback) {
  const auto layout = make_layout(10, 12);
  const std::uint64_t total = layout.total_units();
  const auto period = phase_period(layout, 1 << 16);
  ASSERT_TRUE(period.has_value());
  for (std::uint64_t t0 = 0; t0 < *period; ++t0) {
    const auto plan = plan_reception(layout, t0);
    for (const std::uint64_t pause : {0U, 1U, 7U, 33U}) {
      for (int s = 1; s <= layout.segment_count(); ++s) {
        // Pause at each segment boundary and one slot into the segment.
        for (const std::uint64_t into : {0U, 1U}) {
          const std::uint64_t pause_at =
              t0 + layout.playback_offset_units(s) + into;
          if (pause_at >= t0 + total) {
            continue;
          }
          SCOPED_TRACE(testing::Message() << "t0 = " << t0 << " pause = "
                                          << pause << " at " << pause_at);
          expect_sweep_matches_reference(
              plan.downloads,
              {{t0, pause_at}, {pause_at + pause, t0 + total + pause}});
        }
      }
    }
  }
}

// Transition-local accounting (analysis::transition_local_worst): only two
// consecutive groups' downloads, drained by the playback of their units.
TEST(ReceptionPlanTest, EventSweepTraceMatchesReferenceForTwoGroupPlayback) {
  const auto layout = make_layout(10, 12);
  const auto& groups = layout.groups();
  const auto period = phase_period(layout, 1 << 16);
  ASSERT_TRUE(period.has_value());
  for (std::uint64_t t0 = 0; t0 < *period; ++t0) {
    const auto plan = plan_reception(layout, t0);
    for (std::size_t g = 0; g + 1 < groups.size(); ++g) {
      const auto& from = groups[g];
      const auto& to = groups[g + 1];
      std::vector<SegmentDownload> downloads;
      for (const auto& d : plan.downloads) {
        if (d.segment >= from.first_segment &&
            d.segment < to.first_segment + to.length) {
          downloads.push_back(d);
        }
      }
      const std::uint64_t play_start =
          t0 + layout.playback_offset_units(from.first_segment);
      SCOPED_TRACE(testing::Message() << "t0 = " << t0 << " g = " << g);
      expect_sweep_matches_reference(
          downloads,
          {{play_start, play_start + from.total_units() + to.total_units()}});
    }
  }
}

TEST(ReceptionPlanTest, EventSweepTraceMatchesReferenceForParallelPlanner) {
  const auto layout = make_layout(6, 12);
  for (std::uint64_t t0 = 0; t0 < 64; ++t0) {
    const auto plan = plan_parallel_reception(layout, t0);
    const auto reference =
        reference_trace(plan.downloads, t0, layout.total_units());
    ASSERT_EQ(plan.trace.points().size(), reference.points().size());
    for (std::size_t i = 0; i < reference.points().size(); ++i) {
      EXPECT_EQ(plan.trace.points()[i].time, reference.points()[i].time);
      EXPECT_EQ(plan.trace.points()[i].level, reference.points()[i].level);
    }
  }
}

// --- plan_summary: the group planner against the full planner ------------

/// Calls fn(layout) for the skyscraper, fast and flat laws at K = 1..20 and
/// 27, 34, ..., 90, each at W = 1, 2, 3, 12, 52, 200 and uncapped. The
/// uncapped fast law stops at K = 60 (2^60 - 1 units): longer layouts leave
/// the 64-bit range the buffer sweep's levels live in.
template <typename Fn>
void for_each_summary_layout(Fn&& fn) {
  static const series::SkyscraperSeries skyscraper;
  static const series::FastSeries fast;
  static const series::FlatSeries flat;
  std::vector<int> ks;
  for (int k = 1; k <= 20; ++k) {
    ks.push_back(k);
  }
  for (int k = 27; k <= 90; k += 7) {
    ks.push_back(k);
  }
  const series::BroadcastSeries* const laws[] = {&skyscraper, &fast, &flat};
  const std::uint64_t widths[] = {1, 2, 3, 12, 52, 200, series::kUncapped};
  for (const series::BroadcastSeries* law : laws) {
    for (const int k : ks) {
      for (const std::uint64_t w : widths) {
        if (law == &fast && w == series::kUncapped && k > 60) {
          continue;
        }
        SCOPED_TRACE(testing::Message() << law->name() << " K=" << k
                                        << " W=" << w);
        fn(series::SegmentLayout(
            *law, k, w,
            core::VideoParams{core::Minutes{120.0}, core::MbitPerSec{1.5}}));
      }
    }
  }
}

/// The phases each layout is checked at: every phase below a cap (all of
/// them when the period is shorter), four random t0 < 2^56, and the four
/// last t0 plan_reception's precondition allows.
template <typename Fn>
void for_each_summary_phase(const series::SegmentLayout& layout,
                            std::uint64_t cap, util::Rng& rng, Fn&& fn) {
  const std::uint64_t phases = phase_period(layout, cap).value_or(cap);
  for (std::uint64_t t0 = 0; t0 < phases; ++t0) {
    fn(t0);
  }
  for (int i = 0; i < 4; ++i) {
    fn(rng.next_u64() >> 8);
  }
  const std::uint64_t last =
      std::numeric_limits<std::uint64_t>::max() - 2 * layout.total_units();
  for (std::uint64_t t0 = last - 3; t0 != last + 1; ++t0) {
    fn(t0);
  }
}

// plan_summary plans from the transmission groups alone; it must agree with
// plan_reception's full plan on every verdict.
TEST(ReceptionPlanTest, PlanSummaryMatchesPlannerOnEveryLayout) {
  util::Rng rng(2601);
  std::uint64_t checked = 0;
  for_each_summary_layout([&](const series::SegmentLayout& layout) {
    for_each_summary_phase(layout, 256, rng, [&](std::uint64_t t0) {
      const PlanSummary expected = plan_reception(layout, t0).summary();
      const PlanSummary summary = plan_summary(layout, t0);
      ASSERT_EQ(summary.jitter_free, expected.jitter_free) << "t0 = " << t0;
      ASSERT_EQ(summary.max_concurrent_downloads,
                expected.max_concurrent_downloads)
          << "t0 = " << t0;
      ASSERT_EQ(summary.max_buffer_units, expected.max_buffer_units)
          << "t0 = " << t0;
      ++checked;
    });
    // One past the last t0 the 64-bit precondition allows: both planners
    // refuse it the same way.
    const std::uint64_t past =
        std::numeric_limits<std::uint64_t>::max() -
        2 * layout.total_units() + 1;
    EXPECT_THROW((void)plan_summary(layout, past), util::ContractViolation);
    EXPECT_THROW((void)plan_reception(layout, past), util::ContractViolation);
  });
  // 630 layouts less the 5 long uncapped fast ones, each at >= 9 phases.
  EXPECT_GE(checked, 625U * 9U);
}

// The lemma plan_summary rests on, checked on the full planner: within a
// transmission group the loader fetches the segments back to back, and
// every segment has its group's first slack (deadline - start, negative
// when late), so the group is late iff its first segment is.
TEST(ReceptionPlanTest, GroupsDownloadBackToBackWithOneSlack) {
  util::Rng rng(2602);
  for_each_summary_layout([&](const series::SegmentLayout& layout) {
    for_each_summary_phase(layout, 16, rng, [&](std::uint64_t t0) {
      const auto plan = plan_reception(layout, t0);
      for (const auto& group : layout.groups()) {
        const auto first = static_cast<std::size_t>(group.first_segment - 1);
        const SegmentDownload& head = plan.downloads[first];
        const auto slack =
            static_cast<std::int64_t>(head.deadline - head.start);
        for (std::size_t i = first + 1;
             i < first + static_cast<std::size_t>(group.length); ++i) {
          const SegmentDownload& d = plan.downloads[i];
          ASSERT_EQ(d.start, plan.downloads[i - 1].end())
              << "t0 = " << t0 << " segment " << d.segment;
          ASSERT_EQ(static_cast<std::int64_t>(d.deadline - d.start), slack)
              << "t0 = " << t0 << " segment " << d.segment;
        }
      }
    });
  });
}

}  // namespace
}  // namespace vodbcast::client
