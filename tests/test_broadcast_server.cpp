#include "sim/broadcast_server.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "schemes/permutation_pyramid.hpp"
#include "schemes/registry.hpp"
#include "schemes/skyscraper.hpp"
#include "util/rng.hpp"

namespace vodbcast::sim {
namespace {

schemes::DesignInput paper_input(double bandwidth) {
  return schemes::DesignInput{
      .server_bandwidth = core::MbitPerSec{bandwidth},
      .num_videos = 10,
      .video = core::VideoParams{core::Minutes{120.0}, core::MbitPerSec{1.5}},
  };
}

TEST(BroadcastServerTest, NextSegmentStartForSkyscraper) {
  const schemes::SkyscraperScheme sb(series::kUncapped);
  const auto input = paper_input(75.0);  // K = 5, D1 = 8 min
  const auto design = sb.design(input);
  const BroadcastServer server(sb.plan(input, *design));

  const auto start = server.next_segment_start(0, 1, core::Minutes{3.0});
  ASSERT_TRUE(start.has_value());
  EXPECT_DOUBLE_EQ(start->v, 8.0);
  // A request exactly at a broadcast start waits zero.
  EXPECT_DOUBLE_EQ(server.next_segment_start(0, 1, core::Minutes{16.0})->v,
                   16.0);
}

TEST(BroadcastServerTest, MissingSegmentReturnsNullopt) {
  const schemes::SkyscraperScheme sb(series::kUncapped);
  const auto input = paper_input(75.0);
  const auto design = sb.design(input);
  const BroadcastServer server(sb.plan(input, *design));
  EXPECT_FALSE(server.next_segment_start(0, 99, core::Minutes{0.0})
                   .has_value());
  EXPECT_FALSE(server.worst_wait(42, 1).has_value());
}

TEST(BroadcastServerTest, WorstWaitEqualsSegmentOnePeriodForSB) {
  const schemes::SkyscraperScheme sb(series::kUncapped);
  const auto input = paper_input(75.0);
  const auto design = sb.design(input);
  const BroadcastServer server(sb.plan(input, *design));
  const auto wait = server.worst_wait(0, 1);
  ASSERT_TRUE(wait.has_value());
  EXPECT_DOUBLE_EQ(wait->v, 8.0);  // D1
}

TEST(BroadcastServerTest, WorstWaitShrinksWithPpbReplicas) {
  const schemes::PermutationPyramidScheme ppb(schemes::Variant::kB);
  const auto input = paper_input(320.0);
  const auto design = ppb.design(input);
  ASSERT_TRUE(design.has_value());
  const BroadcastServer server(ppb.plan(input, *design));
  const auto wait = server.worst_wait(0, 1);
  ASSERT_TRUE(wait.has_value());
  // The closed form: latency = worst replica gap = period / P.
  const auto metrics = ppb.metrics(input, *design);
  EXPECT_NEAR(wait->v, metrics.access_latency.v, 1e-9);
}

TEST(BroadcastServerTest, AggregateRateMatchesPlanBudget) {
  const schemes::SkyscraperScheme sb(52);
  const auto input = paper_input(150.0);
  const auto design = sb.design(input);
  const BroadcastServer server(sb.plan(input, *design));
  // SB channels loop continuously: aggregate equals K*M*b at all times.
  EXPECT_NEAR(server.aggregate_rate_at(core::Minutes{0.5}).v, 150.0, 1e-9);
  EXPECT_NEAR(server.aggregate_rate_at(core::Minutes{77.3}).v, 150.0, 1e-9);
}

/// next_segment_start as a scan over every stream of the plan: the earliest
/// start at or after t, the first stream in plan order winning ties.
std::optional<core::Minutes> scan_next_start(const channel::ChannelPlan& plan,
                                             core::VideoId video, int segment,
                                             core::Minutes t) {
  std::optional<core::Minutes> best;
  for (const auto& s : plan.streams()) {
    if (s.video != video || s.segment != segment) {
      continue;
    }
    const core::Minutes start = s.next_start_at_or_after(t);
    if (!best.has_value() || start.v < best->v) {
      best = start;
    }
  }
  return best;
}

/// worst_wait as a scan: the largest gap between consecutive replica phases
/// within one period, replicas collected in plan order.
std::optional<core::Minutes> scan_worst_wait(const channel::ChannelPlan& plan,
                                             core::VideoId video,
                                             int segment) {
  std::vector<double> phases;
  double period = 0.0;
  for (const auto& s : plan.streams()) {
    if (s.video == video && s.segment == segment) {
      period = s.period.v;
      phases.push_back(std::fmod(s.phase.v, period));
    }
  }
  if (phases.empty()) {
    return std::nullopt;
  }
  std::sort(phases.begin(), phases.end());
  double worst = phases.front() + period - phases.back();
  for (std::size_t i = 1; i < phases.size(); ++i) {
    worst = std::max(worst, phases[i] - phases[i - 1]);
  }
  return core::Minutes{worst};
}

void expect_same(const std::optional<core::Minutes>& got,
                 const std::optional<core::Minutes>& want,
                 const std::string& where) {
  ASSERT_EQ(got.has_value(), want.has_value()) << where;
  if (want.has_value()) {
    EXPECT_EQ(got->v, want->v) << where;  // bit for bit
  }
}

// The tune-in index against a scan of the whole plan: SB, PPB with replica
// subchannels (so several streams share a key and ties go to plan order),
// staggered and pyramid plans; every video 0..M and segment 0..K+1, at
// broadcast starts (ties between replicas land here), just before them,
// and at random times.
TEST(BroadcastServerTest, IndexMatchesAScanOfThePlan) {
  const struct {
    const char* label;
    double bandwidth;
  } cases[] = {{"SB:W=52", 150.0},
               {"SB:W=2", 100.0},
               {"PPB:b", 320.0},
               {"PPB:a", 470.0},
               {"staggered", 100.0},
               {"PB:a", 320.0}};
  bool saw_replicas = false;
  for (const auto& c : cases) {
    const auto scheme = schemes::make_scheme(c.label);
    const auto input = paper_input(c.bandwidth);
    const auto design = scheme->design(input);
    ASSERT_TRUE(design.has_value()) << c.label;
    const BroadcastServer server(scheme->plan(input, *design));
    const auto& plan = server.plan();
    int max_segment = 0;
    double max_period = 0.0;
    std::vector<double> times{0.0};
    for (const auto& s : plan.streams()) {
      max_segment = std::max(max_segment, s.segment);
      max_period = std::max(max_period, s.period.v);
      for (int k = 0; k < 3; ++k) {
        const double start = s.phase.v + k * s.period.v;
        times.push_back(start);
        times.push_back(std::nextafter(start, 0.0));
      }
    }
    util::Rng rng(7);
    for (int i = 0; i < 64; ++i) {
      times.push_back(rng.next_double() * 3.0 * max_period);
    }
    const auto videos = static_cast<core::VideoId>(input.num_videos);
    for (core::VideoId v = 0; v <= videos; ++v) {
      for (int segment = 0; segment <= max_segment + 1; ++segment) {
        const std::string where = std::string(c.label) + " video " +
                                  std::to_string(v) + " segment " +
                                  std::to_string(segment);
        std::size_t replicas = 0;
        for (const auto& s : plan.streams()) {
          replicas += s.video == v && s.segment == segment ? 1 : 0;
        }
        saw_replicas = saw_replicas || replicas > 1;
        expect_same(server.worst_wait(v, segment),
                    scan_worst_wait(plan, v, segment), where);
        for (const double t : times) {
          expect_same(server.next_segment_start(v, segment, core::Minutes{t}),
                      scan_next_start(plan, v, segment, core::Minutes{t}),
                      where + " t " + std::to_string(t));
        }
      }
    }
    // Outside the plan's (video, segment) range: nothing to tune into.
    EXPECT_FALSE(server.next_segment_start(0, 0, core::Minutes{1.0}));
    EXPECT_FALSE(
        server.next_segment_start(0, max_segment + 1, core::Minutes{1.0}));
    EXPECT_FALSE(server.next_segment_start(videos, 1, core::Minutes{1.0}));
    EXPECT_FALSE(server.worst_wait(0, 0));
    EXPECT_FALSE(server.worst_wait(0, max_segment + 1));
    EXPECT_FALSE(server.worst_wait(videos, 1));
  }
  EXPECT_TRUE(saw_replicas);  // PPB's subchannels exercised the tie rule
}

TEST(BroadcastServerTest, EmptyPlanCarriesNothing) {
  const BroadcastServer server{channel::ChannelPlan{}};
  EXPECT_FALSE(server.next_segment_start(0, 1, core::Minutes{0.0}));
  EXPECT_FALSE(server.worst_wait(0, 1));
}

TEST(BroadcastServerTest, RangeStartsAtThePlansLowestKey) {
  // Videos 5..6 and segments 2..4, with holes: a key below either base
  // wraps out of the range instead of aliasing a carried one.
  const auto stream = [](core::VideoId video, int segment, double phase) {
    return channel::PeriodicBroadcast{.video = video,
                                      .segment = segment,
                                      .rate = core::MbitPerSec{1.5},
                                      .period = core::Minutes{4.0},
                                      .phase = core::Minutes{phase},
                                      .transmission = core::Minutes{4.0}};
  };
  const BroadcastServer server(channel::ChannelPlan(
      {stream(6, 4, 1.0), stream(5, 2, 0.5), stream(6, 4, 3.0)}));
  EXPECT_EQ(server.next_segment_start(5, 2, core::Minutes{1.0})->v, 4.5);
  EXPECT_EQ(server.next_segment_start(6, 4, core::Minutes{1.5})->v, 3.0);
  EXPECT_EQ(server.worst_wait(6, 4)->v, 2.0);
  for (const auto& [video, segment] :
       std::vector<std::pair<core::VideoId, int>>{
           {4, 2}, {5, 1}, {5, 3}, {5, 4}, {6, 2}, {6, 5}, {7, 4}, {0, 0}}) {
    EXPECT_FALSE(server.next_segment_start(video, segment,
                                           core::Minutes{0.0}))
        << video << "/" << segment;
    EXPECT_FALSE(server.worst_wait(video, segment)) << video << "/" << segment;
  }
}

}  // namespace
}  // namespace vodbcast::sim
