// Phase-keyed plan cache: the shift-invariance property it relies on, the
// cache's equivalence to direct planning, and the simulator-level identity
// contracts (cache on/off, any thread count, with and without faults).
#include "client/plan_cache.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <tuple>
#include <vector>

#include "client/reception_plan.hpp"
#include "fault/injector.hpp"
#include "obs/sink.hpp"
#include "schemes/skyscraper.hpp"
#include "series/broadcast_series.hpp"
#include "sim/simulator.hpp"
#include "util/task_pool.hpp"

namespace vodbcast::client {
namespace {

series::SegmentLayout make_layout(int k, std::uint64_t width) {
  static const series::SkyscraperSeries law;
  return series::SegmentLayout(
      law, k, width,
      core::VideoParams{core::Minutes{120.0}, core::MbitPerSec{1.5}});
}

void expect_plans_equal(const ReceptionPlan& a, const ReceptionPlan& b,
                        std::uint64_t shift) {
  // a must equal b shifted forward by `shift` in every observable field.
  EXPECT_EQ(a.playback_start, b.playback_start + shift);
  EXPECT_EQ(a.jitter_free, b.jitter_free);
  EXPECT_EQ(a.max_concurrent_downloads, b.max_concurrent_downloads);
  EXPECT_EQ(a.max_buffer_units, b.max_buffer_units);
  ASSERT_EQ(a.downloads.size(), b.downloads.size());
  for (std::size_t i = 0; i < a.downloads.size(); ++i) {
    EXPECT_EQ(a.downloads[i].segment, b.downloads[i].segment);
    EXPECT_EQ(a.downloads[i].loader, b.downloads[i].loader);
    EXPECT_EQ(a.downloads[i].length, b.downloads[i].length);
    EXPECT_EQ(a.downloads[i].start, b.downloads[i].start + shift);
    EXPECT_EQ(a.downloads[i].deadline, b.downloads[i].deadline + shift);
  }
  ASSERT_EQ(a.trace.points().size(), b.trace.points().size());
  for (std::size_t i = 0; i < a.trace.points().size(); ++i) {
    EXPECT_EQ(a.trace.points()[i].time, b.trace.points()[i].time + shift);
    EXPECT_EQ(a.trace.points()[i].level, b.trace.points()[i].level);
  }
}

TEST(PhasePeriodTest, MatchesLcmOfSlotPeriods) {
  // SB:W=52 active sizes {1, 2, 5, 12, 25, 52}: lcm = 3900.
  EXPECT_EQ(phase_period(make_layout(10, 52), 1 << 16),
            std::optional<std::uint64_t>{3900});
  // W=1 degenerates to the flat staggered layout: period 1.
  EXPECT_EQ(phase_period(make_layout(6, 1), 1 << 16),
            std::optional<std::uint64_t>{1});
}

TEST(PhasePeriodTest, NulloptWhenOverBudget) {
  EXPECT_EQ(phase_period(make_layout(10, 52), 100), std::nullopt);
}

// The invariant PlanCache relies on, pinned independently of the cache:
// plan_reception(layout, t0) equals the canonical plan at t0 mod P with
// every time shifted by t0 - t0 mod P.
class PlanShiftPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(PlanShiftPropertyTest, PlanCommutesWithPhaseShift) {
  const auto layout =
      make_layout(std::get<0>(GetParam()), std::get<1>(GetParam()));
  const auto period = phase_period(layout, 1 << 16);
  ASSERT_TRUE(period.has_value());
  const std::uint64_t p = *period;
  // Arrival offsets spanning several periods plus a far-future arrival.
  const std::uint64_t offsets[] = {0,      1,           p - 1,     p,
                                   p + 1,  2 * p + 3,   7 * p + 5, 1000003};
  for (const std::uint64_t t0 : offsets) {
    const std::uint64_t phase = t0 % p;
    const auto direct = plan_reception(layout, t0);
    const auto canonical = plan_reception(layout, phase);
    expect_plans_equal(direct, canonical, t0 - phase);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SchemeGrid, PlanShiftPropertyTest,
    ::testing::Combine(::testing::Values(2, 4, 6, 8, 10, 12),
                       ::testing::Values(std::uint64_t{2}, std::uint64_t{5},
                                         std::uint64_t{12}, std::uint64_t{25},
                                         std::uint64_t{52})));

TEST(PlanCacheTest, ViewMatchesDirectPlanEverywhere) {
  const auto layout = make_layout(10, 52);
  PlanCache cache(layout);
  ASSERT_TRUE(cache.enabled());
  EXPECT_EQ(cache.period(), 3900U);
  for (std::uint64_t t0 = 0; t0 < 600; ++t0) {
    const auto view = cache.at(t0 * 7);  // stride past the period
    const auto direct = plan_reception(layout, t0 * 7);
    ASSERT_TRUE(view.valid());
    EXPECT_EQ(view.playback_start(), direct.playback_start);
    EXPECT_EQ(view.jitter_free(), direct.jitter_free);
    EXPECT_EQ(view.max_concurrent_downloads(),
              direct.max_concurrent_downloads);
    EXPECT_EQ(view.max_buffer_units(), direct.max_buffer_units);
    ASSERT_EQ(view.download_count(), direct.downloads.size());
    for (std::size_t i = 0; i < direct.downloads.size(); ++i) {
      const auto d = view.download(i);
      EXPECT_EQ(d.segment, direct.downloads[i].segment);
      EXPECT_EQ(d.loader, direct.downloads[i].loader);
      EXPECT_EQ(d.start, direct.downloads[i].start);
      EXPECT_EQ(d.length, direct.downloads[i].length);
      EXPECT_EQ(d.deadline, direct.downloads[i].deadline);
    }
    expect_plans_equal(view.materialize(), direct, 0);
  }
  const auto& stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, 600U);
  EXPECT_EQ(stats.entries, stats.misses);
  EXPECT_LE(stats.entries, cache.period());
  EXPECT_GT(stats.bytes, 0U);
}

TEST(PlanCacheTest, RepeatLookupIsAHitOnTheSameCanonicalPlan) {
  const auto layout = make_layout(10, 52);
  PlanCache cache(layout);
  const auto first = cache.at(17);
  EXPECT_FALSE(first.hit());
  const auto again = cache.at(17 + cache.period());
  EXPECT_TRUE(again.hit());
  EXPECT_EQ(&again.base(), &first.base());
  EXPECT_EQ(again.shift(), first.shift() + cache.period());
  EXPECT_EQ(cache.stats().hits, 1U);
  EXPECT_EQ(cache.stats().misses, 1U);
  EXPECT_EQ(cache.stats().entries, 1U);
}

TEST(PlanCacheTest, PassThroughWhenPeriodExceedsBudget) {
  const auto layout = make_layout(10, 52);
  PlanCache cache(layout, 100);  // period 3900 > 100
  EXPECT_FALSE(cache.enabled());
  EXPECT_EQ(cache.period(), 0U);
  EXPECT_FALSE(cache.contains(5));
  const auto view = cache.at(4242);
  const auto direct = plan_reception(layout, 4242);
  EXPECT_FALSE(view.hit());
  expect_plans_equal(view.materialize(), direct, 0);
  EXPECT_EQ(cache.stats().hits, 0U);
  EXPECT_EQ(cache.stats().misses, 1U);
  EXPECT_EQ(cache.stats().entries, 0U);
}

// The phase table against the planner: every summary lookup over two full
// periods, across SB layouts and one pass-through cache, returns the three
// verdicts of plan_reception at that t0, and the Mbits conversion gives
// the same bits as ReceptionPlan::max_buffer.
TEST(PlanCacheTest, SummaryMatchesPlannerAtEveryPhase) {
  struct Case {
    int k;
    std::uint64_t width;
    std::uint64_t max_entries;
  };
  std::vector<Case> cases;
  for (const int k : {6, 10, 14}) {
    for (const std::uint64_t w : {2, 12, 52}) {
      cases.push_back({k, w, PlanCache::kDefaultMaxEntries});
    }
  }
  // The metro campaign's layout (SB:W=52 at 2400 Mb/s carries K = 80).
  cases.push_back({80, 52, PlanCache::kDefaultMaxEntries});
  cases.push_back({10, 52, 100});  // period 3900 > 100: pass-through
  for (const auto& c : cases) {
    SCOPED_TRACE(::testing::Message() << "K=" << c.k << " W=" << c.width
                                      << " max_entries=" << c.max_entries);
    const auto layout = make_layout(c.k, c.width);
    const auto period = phase_period(layout, 1 << 16);
    ASSERT_TRUE(period.has_value());
    PlanCache cache(layout, c.max_entries);
    EXPECT_EQ(cache.enabled(), c.max_entries >= *period);
    const std::uint64_t lookups = 2 * *period;
    for (std::uint64_t t0 = 0; t0 < lookups; ++t0) {
      const PlanSummary summary = cache.summary(t0);
      const auto direct = plan_reception(layout, t0);
      ASSERT_EQ(summary.jitter_free, direct.jitter_free) << "t0=" << t0;
      ASSERT_EQ(summary.max_concurrent_downloads,
                direct.max_concurrent_downloads) << "t0=" << t0;
      ASSERT_EQ(summary.max_buffer_units, direct.max_buffer_units)
          << "t0=" << t0;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(summary.max_buffer(layout).v),
                std::bit_cast<std::uint64_t>(direct.max_buffer(layout).v))
          << "t0=" << t0;
    }
    const auto& stats = cache.stats();
    EXPECT_EQ(stats.hits + stats.misses, lookups);
    EXPECT_EQ(stats.misses, cache.enabled() ? *period : lookups);
  }
}

TEST(PlanCacheTest, SummaryLookupsRetainNoPlans) {
  const auto layout = make_layout(10, 52);
  PlanCache cache(layout);
  ASSERT_EQ(cache.period(), 3900U);
  for (std::uint64_t t0 = 0; t0 < cache.period(); ++t0) {
    (void)cache.summary(t0);
  }
  const auto& stats = cache.stats();
  EXPECT_EQ(stats.misses, 3900U);
  EXPECT_EQ(stats.hits, 0U);
  EXPECT_EQ(stats.entries, 0U);
  EXPECT_EQ(stats.bytes, 3900 * sizeof(PlanSummary));
  EXPECT_EQ(sizeof(PlanSummary), 16U);
  for (std::uint64_t t0 = 0; t0 < cache.period(); ++t0) {
    EXPECT_FALSE(cache.contains(t0));
  }
  // A second pass is all hits and still retains nothing.
  for (std::uint64_t t0 = cache.period(); t0 < 2 * cache.period(); ++t0) {
    (void)cache.summary(t0);
  }
  EXPECT_EQ(stats.hits, 3900U);
  EXPECT_EQ(stats.entries, 0U);
  EXPECT_EQ(stats.bytes, 3900 * sizeof(PlanSummary));
}

// The two lookups share the table: a phase at() planned is a summary hit,
// but a summary never stands in for the plan at() must retain.
TEST(PlanCacheTest, ViewAndSummaryLookupsShareThePhaseTable) {
  const auto layout = make_layout(10, 52);
  PlanCache cache(layout);
  const auto view = cache.at(17);
  const PlanSummary planned = cache.summary(17 + cache.period());
  EXPECT_EQ(cache.stats().hits, 1U);
  EXPECT_EQ(planned.jitter_free, view.jitter_free());
  EXPECT_EQ(planned.max_concurrent_downloads,
            view.max_concurrent_downloads());
  EXPECT_EQ(planned.max_buffer_units, view.max_buffer_units());

  (void)cache.summary(18);
  EXPECT_FALSE(cache.contains(18));
  EXPECT_FALSE(cache.at(18).hit());
  EXPECT_EQ(cache.stats().hits, 1U);
  EXPECT_EQ(cache.stats().misses, 3U);
  EXPECT_EQ(cache.stats().entries, 2U);
}

// ---------------------------------------------------------------------------
// Simulator-level identity contracts

schemes::DesignInput sim_input() {
  return schemes::DesignInput{
      .server_bandwidth = core::MbitPerSec{300.0},
      .num_videos = 10,
      .video = core::VideoParams{core::Minutes{120.0},
                                 core::MbitPerSec{1.5}},
  };
}

sim::SimulationConfig sim_config(bool cache) {
  sim::SimulationConfig config;
  config.horizon = core::Minutes{120.0};
  config.arrivals_per_minute = 5.0;
  config.seed = 99;
  config.plan_clients = true;
  config.plan_cache = cache;
  return config;
}

void expect_reports_identical(const sim::SimulationReport& a,
                              const sim::SimulationReport& b) {
  EXPECT_EQ(a.scheme, b.scheme);
  EXPECT_EQ(a.clients_served, b.clients_served);
  EXPECT_EQ(a.jitter_events, b.jitter_events);
  EXPECT_EQ(a.max_concurrent_downloads, b.max_concurrent_downloads);
  EXPECT_EQ(a.peak_server_rate.v, b.peak_server_rate.v);
  EXPECT_EQ(a.latency_minutes.samples(), b.latency_minutes.samples());
  EXPECT_EQ(a.buffer_peak_mbits.samples(), b.buffer_peak_mbits.samples());
  EXPECT_EQ(a.fault_hits, b.fault_hits);
  EXPECT_EQ(a.fault_repairs, b.fault_repairs);
  EXPECT_EQ(a.fault_degraded, b.fault_degraded);
  EXPECT_EQ(a.fault_penalty_minutes.samples(),
            b.fault_penalty_minutes.samples());
}

TEST(SimulatorPlanCacheTest, CacheOnOffOutputsAreBitIdentical) {
  const schemes::SkyscraperScheme sb(52);
  const auto input = sim_input();
  expect_reports_identical(sim::simulate(sb, input, sim_config(true)),
                           sim::simulate(sb, input, sim_config(false)));
}

TEST(SimulatorPlanCacheTest, CacheIdentityHoldsAtAnyThreadCount) {
  const schemes::SkyscraperScheme sb(52);
  const auto input = sim_input();
  util::TaskPool four(4);
  util::TaskPool three(3);
  const auto serial =
      sim::simulate_replicated(sb, input, sim_config(true), 4, nullptr);
  const auto parallel =
      sim::simulate_replicated(sb, input, sim_config(true), 4, &four);
  const auto baseline =
      sim::simulate_replicated(sb, input, sim_config(false), 4, &three);
  EXPECT_EQ(serial.merged.clients_served, parallel.merged.clients_served);
  EXPECT_EQ(serial.merged.latency_minutes.samples(),
            parallel.merged.latency_minutes.samples());
  EXPECT_EQ(serial.merged.latency_minutes.samples(),
            baseline.merged.latency_minutes.samples());
  EXPECT_EQ(serial.mean_ci95, parallel.mean_ci95);
  EXPECT_EQ(serial.mean_ci95, baseline.mean_ci95);
}

TEST(SimulatorPlanCacheTest, StreamingCapKeepsExactCountAndMoments) {
  const schemes::SkyscraperScheme sb(52);
  const auto input = sim_input();
  auto capped = sim_config(true);
  capped.stats_sample_cap = 64;
  const auto exact = sim::simulate(sb, input, sim_config(true));
  const auto folded = sim::simulate(sb, input, capped);
  EXPECT_EQ(folded.clients_served, exact.clients_served);
  EXPECT_TRUE(folded.latency_minutes.folded());
  EXPECT_TRUE(folded.latency_minutes.samples().empty());
  EXPECT_EQ(folded.latency_minutes.count(), exact.latency_minutes.count());
  EXPECT_DOUBLE_EQ(folded.latency_minutes.mean(),
                   exact.latency_minutes.mean());
  EXPECT_DOUBLE_EQ(folded.latency_minutes.min(), exact.latency_minutes.min());
  EXPECT_DOUBLE_EQ(folded.latency_minutes.max(), exact.latency_minutes.max());
  // Sketch-backed quantiles are within the sketch's relative accuracy.
  EXPECT_NEAR(folded.latency_minutes.quantile(0.5),
              exact.latency_minutes.quantile(0.5),
              0.02 * exact.latency_minutes.max() + 1e-9);
}

// The ext_metro_scale layout (80-channel SB:W=52, period 3900) at 12k
// arrivals, enough to reach most phases. simulate reads the summary table
// without a sink or faults and walks views otherwise; every lookup path
// must give the same report.
TEST(SimulatorPlanCacheTest, SummaryAndViewPathsGiveIdenticalReports) {
  const schemes::SkyscraperScheme sb(52);
  const schemes::DesignInput input{
      .server_bandwidth = core::MbitPerSec{2400.0},
      .num_videos = 20,
      .video = core::VideoParams{core::Minutes{120.0},
                                 core::MbitPerSec{1.5}},
  };
  auto config = sim_config(true);
  config.horizon = core::Minutes{600.0};
  config.arrivals_per_minute = 20.0;
  const auto summary_path = sim::simulate(sb, input, config);
  ASSERT_GT(summary_path.clients_served, 10000U);
  EXPECT_EQ(summary_path.jitter_events, 0U);

  obs::Sink sink(1024, 1024);
  auto viewed = config;
  viewed.sink = &sink;
  expect_reports_identical(summary_path, sim::simulate(sb, input, viewed));
  const auto misses = sink.metrics.counter("sim.plan_cache.misses").value();
  EXPECT_GT(misses, 3000U);  // most of the 3900 phases
  EXPECT_LE(misses, 3900U);
  EXPECT_EQ(sink.metrics.counter("sim.plan_cache.hits").value() + misses,
            summary_path.clients_served);

  const fault::Injector empty{fault::Plan{}};
  auto zero_episodes = config;
  zero_episodes.injector = &empty;
  expect_reports_identical(summary_path,
                           sim::simulate(sb, input, zero_episodes));

  auto uncached = config;
  uncached.plan_cache = false;
  expect_reports_identical(summary_path, sim::simulate(sb, input, uncached));
}

// Fault-path compatibility: cached plans hand out absolutely-shifted
// download windows, so damage assessment is identical with and without the
// cache, and the PR 8 accounting invariant keeps holding under it.
TEST(SimulatorPlanCacheTest, FaultRunsIdenticalWithAndWithoutCache) {
  const schemes::SkyscraperScheme sb(52);
  const auto input = sim_input();
  fault::PlanSpec spec;
  spec.horizon_min = 120.0;
  spec.channels = 10;
  spec.outages = 2;
  spec.bursts = 2;
  spec.disk_stalls = 1;
  const fault::Injector injector{fault::Plan::generate(spec, 3),
                                 fault::RecoveryPolicy{.retry_budget = 1}};
  auto on = sim_config(true);
  auto off = sim_config(false);
  on.injector = &injector;
  off.injector = &injector;
  const auto cached = sim::simulate(sb, input, on);
  const auto direct = sim::simulate(sb, input, off);
  EXPECT_GT(cached.fault_hits, 0U);
  expect_reports_identical(cached, direct);
  // The PR 8 invariant: every hit is repaired or surfaced, never silent.
  EXPECT_EQ(cached.fault_hits, cached.fault_repairs + cached.fault_degraded);
  EXPECT_EQ(cached.jitter_events, 0U);
  EXPECT_EQ(cached.fault_penalty_minutes.count(), cached.fault_repairs);
}

}  // namespace
}  // namespace vodbcast::client
