// The adaptive control plane: estimator decay contract, allocator
// hysteresis and degradation, end-to-end transition semantics (drains),
// flip re-convergence, and replication determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <stdexcept>
#include <vector>

#include "batching/queue_policies.hpp"
#include "ctrl/adaptive.hpp"
#include "ctrl/allocator.hpp"
#include "ctrl/popularity.hpp"
#include "obs/sink.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"
#include "util/task_pool.hpp"
#include "workload/request.hpp"
#include "workload/zipf.hpp"

namespace vodbcast {
namespace {

constexpr double kLn2 = 0.6931471805599453;

// ---------------------------------------------------------------- estimator

TEST(PopularityEstimatorTest, DecayKnownAnswers) {
  ctrl::PopularityEstimator est(3, core::Minutes{10.0});
  est.observe(0, core::Minutes{0.0});
  EXPECT_DOUBLE_EQ(est.weight(0, core::Minutes{0.0}), 1.0);
  // One half-life halves the weight; two quarter it.
  EXPECT_NEAR(est.weight(0, core::Minutes{10.0}), 0.5, 1e-12);
  EXPECT_NEAR(est.weight(0, core::Minutes{20.0}), 0.25, 1e-12);
  // A second observation adds 1 on top of the decayed weight.
  est.observe(0, core::Minutes{10.0});
  EXPECT_NEAR(est.weight(0, core::Minutes{10.0}), 1.5, 1e-12);
  // Unobserved titles stay at zero.
  EXPECT_DOUBLE_EQ(est.weight(1, core::Minutes{20.0}), 0.0);
}

TEST(PopularityEstimatorTest, SeedPriorInstallsStationaryRate) {
  const std::vector<double> pop{0.5, 0.3, 0.2};
  ctrl::PopularityEstimator est(3, core::Minutes{45.0});
  est.seed_prior(pop, 8.0);
  for (core::VideoId v = 0; v < 3; ++v) {
    // Round-trip: the stationary weight converts back to lambda_v exactly.
    EXPECT_NEAR(est.estimated_rate_per_minute(v, core::Minutes{0.0}),
                pop[v] * 8.0, 1e-12);
    EXPECT_NEAR(est.weight(v, core::Minutes{0.0}),
                pop[v] * 8.0 * 45.0 / kLn2, 1e-9);
  }
}

TEST(PopularityEstimatorTest, StationaryStreamHoldsItsWeight) {
  // Deterministic 1-per-minute stream: the weight converges to the closed
  // form half_life / ln2 (within discretization error of the geometric sum).
  const double half_life = 20.0;
  ctrl::PopularityEstimator est(1, core::Minutes{half_life});
  for (int t = 0; t <= 2000; ++t) {
    est.observe(0, core::Minutes{static_cast<double>(t)});
  }
  const double r = std::exp2(-1.0 / half_life);
  const double expected = 1.0 / (1.0 - r);  // geometric limit
  EXPECT_NEAR(est.weight(0, core::Minutes{2000.0}), expected, 1e-6);
  EXPECT_NEAR(expected, half_life / kLn2, 0.51);  // sanity: near continuum
}

TEST(PopularityEstimatorTest, RankingBreaksTiesOnLowerId) {
  ctrl::PopularityEstimator est(4, core::Minutes{10.0});
  est.observe(2, core::Minutes{0.0});
  est.observe(3, core::Minutes{0.0});
  const auto order = est.ranking(core::Minutes{5.0});
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], 2u);  // equal weights: lower id first
  EXPECT_EQ(order[1], 3u);
  EXPECT_EQ(order[2], 0u);
  EXPECT_EQ(order[3], 1u);
}

TEST(PopularityEstimatorTest, RejectsOutOfOrderObservations) {
  ctrl::PopularityEstimator est(1, core::Minutes{10.0});
  est.observe(0, core::Minutes{5.0});
  EXPECT_THROW(est.observe(0, core::Minutes{4.0}), util::ContractViolation);
  EXPECT_THROW(static_cast<void>(est.weight(0, core::Minutes{4.0})),
               util::ContractViolation);
}

// ---------------------------------------------------------------- allocator

ctrl::AllocatorConfig small_alloc_config() {
  ctrl::AllocatorConfig config;
  config.total_bandwidth = core::MbitPerSec{72.0};
  config.channel_rate = 1.5;
  config.target_hot_titles = 4;
  config.channels_per_video = 4;
  config.min_tail_channels = 2;
  return config;
}

TEST(ChannelAllocatorTest, RejectsEqualHysteresisThresholds) {
  auto config = small_alloc_config();
  config.promote_ratio = 1.0;
  config.demote_ratio = 1.0;
  EXPECT_THROW(ctrl::ChannelAllocator{config}, std::invalid_argument);
  config.promote_ratio = 0.9;  // must exceed 1
  config.demote_ratio = 0.5;
  EXPECT_THROW(ctrl::ChannelAllocator{config}, std::invalid_argument);
}

TEST(ChannelAllocatorTest, RejectsBudgetBelowTailFloor) {
  auto config = small_alloc_config();
  config.total_bandwidth = core::MbitPerSec{2.0};  // < 2 channels * 1.5
  EXPECT_THROW(ctrl::ChannelAllocator{config}, std::invalid_argument);
}

TEST(ChannelAllocatorTest, VacancyFillPromotesTopWeights) {
  const ctrl::ChannelAllocator alloc(small_alloc_config());
  const std::vector<double> w{1.0, 9.0, 3.0, 7.0, 5.0, 0.5};
  const auto a = alloc.reallocate(w, {}, {}, 0.0);
  EXPECT_EQ(a.hot, (std::vector<std::size_t>{1, 2, 3, 4}));
  EXPECT_EQ(a.promoted, a.hot);
  EXPECT_TRUE(a.demoted.empty());
  EXPECT_FALSE(a.degraded);
  EXPECT_EQ(a.channels_per_video, 4);
  // 4 titles * 4 ch * 1.5 = 24 Mb/s hot; (72 - 24) / 1.5 = 32 tail channels.
  EXPECT_EQ(a.tail_channels, 32);
}

TEST(ChannelAllocatorTest, HysteresisBlocksSmallRankNoise) {
  const ctrl::ChannelAllocator alloc(small_alloc_config());
  // Outsider 4 out-weighs incumbent 3 by 10% — inside the dead band.
  const std::vector<double> w{8.0, 7.0, 6.0, 5.0, 5.5, 0.1};
  const auto a = alloc.reallocate(w, {0, 1, 2, 3}, {}, 0.0);
  EXPECT_EQ(a.hot, (std::vector<std::size_t>{0, 1, 2, 3}));
  EXPECT_TRUE(a.promoted.empty());
  EXPECT_TRUE(a.demoted.empty());
}

TEST(ChannelAllocatorTest, DecisiveShiftSwapsThroughHysteresis) {
  const ctrl::ChannelAllocator alloc(small_alloc_config());
  // Outsider 4 dominates incumbent 3 on both thresholds (1.2x / 0.8x).
  const std::vector<double> w{8.0, 7.0, 6.0, 1.0, 5.5, 0.1};
  const auto a = alloc.reallocate(w, {0, 1, 2, 3}, {}, 0.0);
  EXPECT_EQ(a.hot, (std::vector<std::size_t>{0, 1, 2, 4}));
  EXPECT_EQ(a.promoted, (std::vector<std::size_t>{4}));
  EXPECT_EQ(a.demoted, (std::vector<std::size_t>{3}));
}

TEST(ChannelAllocatorTest, RepeatedResolvesDoNotFlap) {
  const ctrl::ChannelAllocator alloc(small_alloc_config());
  // After the swap the new hot set must be a fixed point of reallocate for
  // the same weights — otherwise the boundary would flap every epoch.
  const std::vector<double> w{8.0, 7.0, 6.0, 1.0, 5.5, 0.1};
  auto a = alloc.reallocate(w, {0, 1, 2, 3}, {}, 0.0);
  const auto again = alloc.reallocate(w, a.hot, {}, 0.0);
  EXPECT_EQ(again.hot, a.hot);
  EXPECT_TRUE(again.promoted.empty());
  EXPECT_TRUE(again.demoted.empty());
}

TEST(ChannelAllocatorTest, DrainingTitlesAreExcludedAndReserveDefers) {
  const ctrl::ChannelAllocator alloc(small_alloc_config());
  // Title 5 drains and still holds 4 channels (6 Mb/s). Incumbents 0..2
  // hold 18 Mb/s; tail floor 3 Mb/s. One vacancy: the promotion would need
  // 6 Mb/s but only 72 - 3 - 45 - 18 = 6 ... make the reserve large enough
  // to block it.
  const std::vector<double> w{8.0, 7.0, 6.0, 0.2, 5.5, 4.0};
  const auto a = alloc.reallocate(w, {0, 1, 2}, {5}, 48.0);
  // Draining title 5 competes in no direction.
  EXPECT_EQ(std::count(a.hot.begin(), a.hot.end(), 5u), 0);
  EXPECT_EQ(std::count(a.promoted.begin(), a.promoted.end(), 5u), 0);
  // The vacancy promotion (title 4) is deferred: 72 - 3(tail) - 48(reserve)
  // - 18(incumbents) = 3 Mb/s < 6 Mb/s per title.
  EXPECT_EQ(a.deferred_promotions, 1u);
  EXPECT_EQ(a.hot, (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_GE(a.tail_channels, 2);
}

TEST(ChannelAllocatorTest, OverloadShrinksChannelsThenTitles) {
  auto config = small_alloc_config();
  // 4 titles * 4 ch * 1.5 + 3 = 27 Mb/s needed; give it 15.
  config.total_bandwidth = core::MbitPerSec{15.0};
  const ctrl::ChannelAllocator alloc(config);
  const auto cap = alloc.steady_capacity();
  EXPECT_TRUE(cap.degraded);
  // 15 - 3 = 12 Mb/s for broadcast: K=2 fits 4 titles exactly (4*2*1.5=12).
  EXPECT_EQ(cap.channels_per_video, 2);
  EXPECT_EQ(cap.hot_titles, 4u);

  // Even tighter: only one title fits at K=1.
  config.total_bandwidth = core::MbitPerSec{6.0};
  const ctrl::ChannelAllocator tight(config);
  const auto tcap = tight.steady_capacity();
  EXPECT_EQ(tcap.channels_per_video, 1);
  EXPECT_EQ(tcap.hot_titles, 2u);
  EXPECT_TRUE(tcap.degraded);
}

// ----------------------------------------------------------- adaptive runs

ctrl::AdaptiveConfig adaptive_config() {
  ctrl::AdaptiveConfig config;
  config.total_bandwidth = core::MbitPerSec{72.0};
  config.catalog_size = 40;
  config.hot_titles = 8;
  config.broadcast_channels_per_video = 4;
  config.video = core::VideoParams{core::Minutes{30.0}, core::MbitPerSec{1.5}};
  config.arrivals_per_minute = 6.0;
  config.horizon = core::Minutes{600.0};
  config.epoch = core::Minutes{30.0};
  config.half_life = core::Minutes{30.0};
  config.min_tail_channels = 4;
  config.flip_at = core::Minutes{300.0};
  config.seed = 11;
  return config;
}

TEST(AdaptiveSimTest, StaticModeRunsNoEpochs) {
  auto config = adaptive_config();
  config.epoch = core::Minutes{0.0};  // disables the controller
  config.flip_at = core::Minutes{-1.0};
  const batching::MqlPolicy policy;
  const auto report = ctrl::simulate_adaptive(policy, config);
  EXPECT_EQ(report.epochs, 0u);
  EXPECT_EQ(report.reallocs, 0u);
  EXPECT_EQ(report.promotions, 0u);
  EXPECT_EQ(report.demotions, 0u);
  EXPECT_GT(report.served_hot, 0u);
  EXPECT_GT(report.served_tail, 0u);
  // Hot clients never wait longer than the SB bound D1.
  EXPECT_LE(report.hot_wait_minutes.max(),
            report.broadcast_worst_latency.v + 1e-9);
}

TEST(AdaptiveSimTest, FlipReconvergesAndBeatsStatic) {
  const batching::MqlPolicy policy;
  auto adaptive_cfg = adaptive_config();
  const auto adaptive = ctrl::simulate_adaptive(policy, adaptive_cfg);

  auto static_cfg = adaptive_config();
  static_cfg.epoch = core::Minutes{0.0};  // frozen pre-flip allocation
  const auto frozen = ctrl::simulate_adaptive(policy, static_cfg);

  // The controller noticed the flip and re-solved within a bounded number
  // of epochs (half_life == epoch, so a handful suffices).
  EXPECT_GE(adaptive.converged_epochs_after_flip, 0);
  EXPECT_LE(adaptive.converged_epochs_after_flip, 8);
  EXPECT_GT(adaptive.promotions, 0u);
  EXPECT_GT(adaptive.demotions, 0u);
  EXPECT_GT(adaptive.drains_completed, 0u);

  // Same seed, same request stream: adapting must beat the frozen split on
  // demand-weighted mean wait (count unserved stragglers as horizon waits
  // so a policy cannot win by starving the tail).
  const auto penalized = [](const ctrl::AdaptiveReport& r,
                            double horizon) {
    const double n =
        static_cast<double>(r.wait_minutes.count() + r.unserved);
    double total = r.wait_minutes.empty()
                       ? 0.0
                       : r.wait_minutes.mean() *
                             static_cast<double>(r.wait_minutes.count());
    total += static_cast<double>(r.unserved) * horizon;
    return total / n;
  };
  EXPECT_LT(penalized(adaptive, 600.0), penalized(frozen, 600.0));
}

TEST(AdaptiveSimTest, DrainsCompleteBeforeBandwidthMoves) {
  const batching::MqlPolicy policy;
  auto config = adaptive_config();
  obs::Sink sink;
  config.sink = &sink;
  const auto report = ctrl::simulate_adaptive(policy, config);
  ASSERT_GT(report.demotions, 0u);

  ASSERT_EQ(sink.spans.dropped(), 0u);
  const auto spans = sink.spans.spans();
  // Each demotion records a drain span from the demotion to the handoff,
  // which fires in the run when it falls within the horizon. No
  // broadcast-served playback (its session has a tune child or an epoch
  // parent) of the demoted title may straddle the handoff instant
  // (trace_analyze replays the same drain contract from the exported JSONL).
  std::map<std::uint64_t, const obs::Span*> by_id;
  std::set<std::uint64_t> tuned_sessions;
  for (const auto& s : spans) {
    by_id[s.id] = &s;
    if (s.phase == obs::SpanPhase::kTune) {
      tuned_sessions.insert(s.parent);
    }
  }
  const auto phase_of = [&by_id](std::uint64_t id) {
    return by_id.at(id)->phase;
  };
  struct Download {
    double start;
    double end;
  };
  std::vector<std::vector<Download>> downloads(config.catalog_size);
  std::uint64_t promotes = 0;
  for (const auto& s : spans) {
    if (s.phase == obs::SpanPhase::kPromote) {
      ++promotes;
      EXPECT_EQ(phase_of(s.parent), obs::SpanPhase::kEpoch);
      EXPECT_EQ(s.start_min, s.end_min);
    }
    if (s.phase != obs::SpanPhase::kPlayback) {
      continue;
    }
    const auto session = s.parent;
    const auto epoch = by_id.at(session)->parent;
    if (tuned_sessions.count(session) != 0 ||
        (epoch != 0 && phase_of(epoch) == obs::SpanPhase::kEpoch)) {
      downloads[s.video].push_back(Download{s.start_min, s.end_min});
    }
  }
  EXPECT_EQ(promotes, report.promotions);
  std::uint64_t drains_seen = 0;
  std::uint64_t handoffs = 0;
  std::uint64_t checked = 0;
  for (const auto& drain : spans) {
    if (drain.phase != obs::SpanPhase::kDrain) {
      continue;
    }
    ++drains_seen;
    const double handoff = drain.end_min;
    handoffs += handoff <= config.horizon.v ? 1 : 0;
    EXPECT_GE(drain.value, -1e-9);  // drain duration is never negative
    EXPECT_EQ(drain.value, drain.end_min - drain.start_min);
    for (const auto& d : downloads[drain.video]) {
      ++checked;
      const bool straddles =
          d.start < handoff - 1e-6 && d.end > handoff + 1e-6;
      EXPECT_FALSE(straddles) << "download of video " << drain.video << " ["
                              << d.start << ", " << d.end
                              << "] spans the drain handoff at " << handoff;
    }
  }
  EXPECT_GT(checked, 0u);
  EXPECT_EQ(drains_seen, report.demotions);
  EXPECT_EQ(handoffs, report.drains_completed);
  EXPECT_LE(report.drains_completed, report.demotions);

  // The ctrl.* instruments recorded the same story.
  const auto snapshot = sink.metrics.snapshot();
  const auto counter = [&](const std::string& name) -> std::uint64_t {
    for (const auto& c : snapshot.counters) {
      if (c.name == name) {
        return c.value;
      }
    }
    return 0;
  };
  EXPECT_EQ(counter("ctrl.promotions"), report.promotions);
  EXPECT_EQ(counter("ctrl.demotions"), report.demotions);
  EXPECT_EQ(counter("ctrl.drains_completed"), report.drains_completed);
  EXPECT_GE(counter("ctrl.realloc"), 1u);
}

TEST(AdaptiveSimTest, OverloadDegradesInsteadOfRejecting) {
  const batching::MqlPolicy policy;
  auto config = adaptive_config();
  // Budget fits the tail floor but not 8 titles * 4 channels.
  config.total_bandwidth = core::MbitPerSec{30.0};
  const auto report = ctrl::simulate_adaptive(policy, config);
  EXPECT_TRUE(report.degraded);
  EXPECT_LT(report.channels_per_video, 4);
  // Fewer channels -> higher, but still bounded, broadcast latency.
  auto full = adaptive_config();
  const auto baseline = ctrl::simulate_adaptive(policy, full);
  EXPECT_GT(report.broadcast_worst_latency.v,
            baseline.broadcast_worst_latency.v);
  // Nobody was rejected: everyone was served or still queued at the end.
  EXPECT_EQ(report.served_hot + report.served_tail + report.unserved,
            baseline.served_hot + baseline.served_tail + baseline.unserved);
}

// ------------------------------------------------------------- determinism

TEST(AdaptiveSimTest, ReplicatedBitIdenticalSerialVsParallel) {
  const batching::MqlPolicy policy;
  auto config = adaptive_config();
  config.horizon = core::Minutes{300.0};
  config.flip_at = core::Minutes{150.0};
  obs::Sink serial_sink;
  obs::Sink pooled_sink;

  config.sink = &serial_sink;
  const auto serial =
      ctrl::simulate_adaptive_replicated(policy, config, 4, nullptr);

  util::TaskPool pool(4);
  config.sink = &pooled_sink;
  const auto pooled =
      ctrl::simulate_adaptive_replicated(policy, config, 4, &pool);

  // Sample-for-sample equality, not just summary equality.
  EXPECT_EQ(serial.merged.wait_minutes.samples(),
            pooled.merged.wait_minutes.samples());
  EXPECT_EQ(serial.merged.hot_wait_minutes.samples(),
            pooled.merged.hot_wait_minutes.samples());
  EXPECT_EQ(serial.merged.tail_wait_minutes.samples(),
            pooled.merged.tail_wait_minutes.samples());
  EXPECT_EQ(serial.merged.served_hot, pooled.merged.served_hot);
  EXPECT_EQ(serial.merged.served_tail, pooled.merged.served_tail);
  EXPECT_EQ(serial.merged.promotions, pooled.merged.promotions);
  EXPECT_EQ(serial.merged.demotions, pooled.merged.demotions);
  EXPECT_EQ(serial.merged.drains_completed, pooled.merged.drains_completed);
  EXPECT_EQ(serial.merged.final_hot, pooled.merged.final_hot);
  EXPECT_EQ(serial.merged.converged_epochs_after_flip,
            pooled.merged.converged_epochs_after_flip);
  EXPECT_EQ(serial.mean_ci95, pooled.mean_ci95);
  EXPECT_EQ(serial.replication_means.samples(),
            pooled.replication_means.samples());

  // Folded observability is part of the contract too; the *_ns timing
  // histograms are excluded — they measure host wall time, which no
  // schedule can make reproducible.
  const auto ms = serial_sink.metrics.snapshot();
  const auto mp = pooled_sink.metrics.snapshot();
  EXPECT_EQ(ms.counters, mp.counters);
  EXPECT_EQ(ms.gauges, mp.gauges);
  EXPECT_GT(serial_sink.spans.recorded(), 0u);
  EXPECT_EQ(serial_sink.spans.to_jsonl(), pooled_sink.spans.to_jsonl());
}

TEST(AdaptiveSimTest, ReplicationsDifferButSeedsReproduce) {
  const batching::MqlPolicy policy;
  auto config = adaptive_config();
  config.horizon = core::Minutes{200.0};
  config.flip_at = core::Minutes{-1.0};
  const auto a = ctrl::simulate_adaptive_replicated(policy, config, 3);
  const auto b = ctrl::simulate_adaptive_replicated(policy, config, 3);
  EXPECT_EQ(a.merged.wait_minutes.samples(), b.merged.wait_minutes.samples());
  ASSERT_EQ(a.replication_means.count(), 3u);
  // Different replication seeds genuinely vary the stream.
  EXPECT_GT(a.replication_means.stddev(), 0.0);
  EXPECT_GT(a.mean_ci95, 0.0);
}

// The replication interval is 1.96 * s / sqrt(R) with s the *sample*
// standard deviation of the replication means (R - 1 in the denominator),
// the rule every replicated run shares.
TEST(AdaptiveSimTest, ReplicationCiUsesTheSampleStddev) {
  const batching::MqlPolicy policy;
  auto config = adaptive_config();
  config.horizon = core::Minutes{200.0};
  config.flip_at = core::Minutes{-1.0};
  const auto replicated = ctrl::simulate_adaptive_replicated(policy, config, 3);
  const auto& means = replicated.replication_means.samples();
  ASSERT_EQ(means.size(), 3U);
  const double m = (means[0] + means[1] + means[2]) / 3.0;
  double squares = 0.0;
  for (const double x : means) {
    squares += (x - m) * (x - m);
  }
  const double s = std::sqrt(squares / 2.0);
  ASSERT_GT(s, 0.0);
  EXPECT_DOUBLE_EQ(replicated.mean_ci95, 1.96 * s / std::sqrt(3.0));
}

// stats_sample_cap bounds all three wait distributions, a single run's and
// the replication fold's, while count, mean, min and max stay exact.
TEST(AdaptiveSimTest, StatsCapKeepsExactCountAndMoments) {
  const batching::MqlPolicy policy;
  const auto exact_config = adaptive_config();
  auto capped_config = exact_config;
  capped_config.stats_sample_cap = 16;
  const auto exact = ctrl::simulate_adaptive(policy, exact_config);
  const auto capped = ctrl::simulate_adaptive(policy, capped_config);
  const auto exact_reps =
      ctrl::simulate_adaptive_replicated(policy, exact_config, 3);
  const auto capped_reps =
      ctrl::simulate_adaptive_replicated(policy, capped_config, 3);
  EXPECT_EQ(capped.served_hot, exact.served_hot);
  EXPECT_EQ(capped.served_tail, exact.served_tail);
  for (const auto member :
       {&ctrl::AdaptiveReport::wait_minutes,
        &ctrl::AdaptiveReport::hot_wait_minutes,
        &ctrl::AdaptiveReport::tail_wait_minutes}) {
    for (const auto& [e, c] :
         {std::pair{&(exact.*member), &(capped.*member)},
          std::pair{&(exact_reps.merged.*member),
                    &(capped_reps.merged.*member)}}) {
      ASSERT_GT(e->count(), 16U);
      EXPECT_FALSE(e->folded());
      EXPECT_TRUE(c->folded());
      EXPECT_EQ(c->sample_cap(), 16U);
      EXPECT_TRUE(c->samples().empty());
      EXPECT_EQ(c->count(), e->count());
      EXPECT_EQ(c->mean(), e->mean());
      EXPECT_EQ(c->min(), e->min());
      EXPECT_EQ(c->max(), e->max());
    }
  }
  EXPECT_EQ(capped_reps.replication_means.samples(),
            exact_reps.replication_means.samples());
}

TEST(AdaptiveSimTest, ExactWaitStoresAreReservedFromTheFeed) {
  // Each wait distribution takes at most one sample per arrival, so each
  // store is sized to the feed's count bound (a function of the rate and
  // the horizon) up front and the exact run never regrew it.
  const batching::MqlPolicy policy;
  const auto config = adaptive_config();
  const auto report = ctrl::simulate_adaptive(policy, config);
  const std::size_t bound =
      workload::RequestFeed(
          workload::RequestGenerator({1.0}, config.arrivals_per_minute,
                                     util::Rng(0)),
          config.horizon)
          .count_bound();
  ASSERT_LE(report.wait_minutes.count(), bound);
  for (const auto* waits : {&report.wait_minutes, &report.hot_wait_minutes,
                            &report.tail_wait_minutes}) {
    EXPECT_EQ(waits->samples().capacity(), bound);
  }
}

// A replication that served nobody has no mean wait, so it adds no sample
// to the replication means (it used to add a 0-minute mean).
TEST(AdaptiveSimTest, ReplicationsThatServeNobodyAddNoMean) {
  const batching::MqlPolicy policy;
  auto config = adaptive_config();
  config.horizon = core::Minutes{1e-6};
  config.flip_at = core::Minutes{-1.0};
  const auto replicated = ctrl::simulate_adaptive_replicated(policy, config, 3);
  ASSERT_TRUE(replicated.merged.wait_minutes.empty());
  EXPECT_TRUE(replicated.replication_means.empty());
  EXPECT_EQ(replicated.mean_ci95, 0.0);
}

// Memory canary: the event heap holds server events only (batch
// completions, drains, epochs, the flip), whose number is bounded by the
// channel budget, not by the arrivals — doubling the horizon doubles the
// arrivals but not the slab.
TEST(AdaptiveSimTest, EventSlabDoesNotGrowWithTheHorizon) {
  const batching::MqlPolicy policy;
  const auto slab_slots = [&policy](double horizon) {
    auto config = adaptive_config();
    config.horizon = core::Minutes{horizon};
    obs::Sink sink;
    config.sink = &sink;
    const auto report = ctrl::simulate_adaptive(policy, config);
    EXPECT_GT(report.served_hot + report.served_tail, 0U);
    return sink.metrics.gauge("sim.event_queue.slab_slots").value();
  };
  const double single = slab_slots(600.0);
  const double doubled = slab_slots(1200.0);
  EXPECT_GT(single, 0.0);
  // Pre-scheduled arrivals would make this ratio about 2.
  EXPECT_LT(doubled, 1.5 * single) << single << " -> " << doubled;
}

}  // namespace
}  // namespace vodbcast
