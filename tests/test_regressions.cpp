// Regression tests for specific defects found during development, kept as
// executable documentation of the fixes.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <ios>
#include <string>
#include <string_view>
#include <vector>

#include "batching/hybrid.hpp"
#include "batching/queue_policies.hpp"
#include "batching/scheduled_multicast.hpp"
#include "client/client_session.hpp"
#include "client/reception_plan.hpp"
#include "ctrl/adaptive.hpp"
#include "fault/injector.hpp"
#include "metro/federation.hpp"
#include "obs/sink.hpp"
#include "schemes/permutation_pyramid.hpp"
#include "schemes/skyscraper.hpp"
#include "series/broadcast_series.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/task_pool.hpp"
#include "workload/request.hpp"
#include "workload/zipf.hpp"

namespace vodbcast {
namespace {

TEST(RegressionTest, NarrowWidthManyChannelsDoesNotOverflow) {
  // SB:W=2 at 2 Gb/s gives K = 133; the raw skyscraper element f(133) is
  // astronomically larger than 2^64. The capped prefix must never evaluate
  // elements past the point where the cap binds.
  const series::SkyscraperSeries law;
  const auto values = law.prefix(200, 2);
  ASSERT_EQ(values.size(), 200U);
  EXPECT_EQ(values.front(), 1U);
  for (std::size_t i = 1; i < values.size(); ++i) {
    EXPECT_EQ(values[i], 2U);
  }
  EXPECT_EQ(law.prefix_sum(200, 2), 399U);

  const schemes::SkyscraperScheme sb(2);
  const schemes::DesignInput input{
      .server_bandwidth = core::MbitPerSec{2000.0},
      .num_videos = 10,
      .video = core::VideoParams{core::Minutes{120.0}, core::MbitPerSec{1.5}},
  };
  const auto eval = sb.evaluate(input);
  ASSERT_TRUE(eval.has_value());
  EXPECT_EQ(eval->design.segments, 133);
}

TEST(RegressionTest, EagerLoaderWouldExceedThePaperBound) {
  // The paper's storage bound 60*b*D1*(W-1) only holds for a just-in-time
  // loader. The layout [1,2,2,5,5,12,12,25,25,25] (K = 10, W = 25) is where
  // an eager loader peaks at 28 > 24 units; the JIT planner must stay at or
  // below W - 1 = 24.
  const series::SkyscraperSeries law;
  const series::SegmentLayout layout(
      law, 10, 25,
      core::VideoParams{core::Minutes{120.0}, core::MbitPerSec{1.5}});
  const auto worst = client::worst_case_over_phases(layout);
  EXPECT_TRUE(worst.always_jitter_free);
  EXPECT_LE(worst.max_buffer_units, 24);
}

TEST(RegressionTest, PpbVariantBBacksOffSegmentsWhenInfeasible) {
  // At B = 300 Mb/s the preferred K = 7 gives c = 2.857 and PPB:b's P >= 2
  // floor pushes alpha below 1; the design must fall back to K = 6 rather
  // than report the whole scheme infeasible (the paper's PPB curves are
  // continuous across the axis).
  const schemes::PermutationPyramidScheme ppb(schemes::Variant::kB);
  const schemes::DesignInput input{
      .server_bandwidth = core::MbitPerSec{300.0},
      .num_videos = 10,
      .video = core::VideoParams{core::Minutes{120.0}, core::MbitPerSec{1.5}},
  };
  const auto design = ppb.design(input);
  ASSERT_TRUE(design.has_value());
  EXPECT_EQ(design->segments, 6);
  EXPECT_GT(design->alpha, 1.0);
}

TEST(RegressionTest, PpbFeasibleAcrossTheWholePaperAxis) {
  for (const auto variant : {schemes::Variant::kA, schemes::Variant::kB}) {
    const schemes::PermutationPyramidScheme ppb(variant);
    for (double b = 100.0; b <= 600.0; b += 10.0) {
      const schemes::DesignInput input{
          .server_bandwidth = core::MbitPerSec{b},
          .num_videos = 10,
          .video =
              core::VideoParams{core::Minutes{120.0}, core::MbitPerSec{1.5}},
      };
      EXPECT_TRUE(ppb.design(input).has_value())
          << ppb.name() << " at B = " << b;
    }
  }
}

TEST(RegressionTest, UncappedPrefixStillEvaluatesEagerly) {
  // The cap short-circuit must not change uncapped prefixes.
  const series::SkyscraperSeries law;
  const auto values = law.prefix(11);
  const std::vector<std::uint64_t> expected{1, 2, 2, 5, 5, 12, 12, 25, 25,
                                            52, 52};
  EXPECT_EQ(values, expected);
}

TEST(RegressionTest, PlanReceptionMatchesSessionOnCapBoundary) {
  // The width-cap tail merges into a single transmission group served by
  // one loader; planner and slot machine must agree there too.
  const series::SkyscraperSeries law;
  const series::SegmentLayout layout(
      law, 12, 5,
      core::VideoParams{core::Minutes{120.0}, core::MbitPerSec{1.5}});
  for (std::uint64_t t0 = 0; t0 < 20; ++t0) {
    const auto plan = client::plan_reception(layout, t0);
    const auto session = client::ClientSession(layout, t0).run();
    EXPECT_EQ(plan.jitter_free, session.jitter_free) << t0;
    EXPECT_EQ(plan.max_buffer_units, session.max_buffer_units) << t0;
  }
}


// ---------------------------------------------------------------------------
// Report pins. Each case below hard-codes a report of a simulator built on
// the event engine, as the engine produced it when every arrival was
// scheduled into the heap up front, with doubles compared bit for bit. The
// byte-diffs in scripts/verify_all.sh only compare two runs of one build;
// these pins are what catch a changed equal-time tie rule or a reordered
// floating-point accumulation between builds.

/// FNV-1a accumulator over 64-bit words.
class Fnv {
 public:
  Fnv& add(std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (word >> (8 * i)) & 0xffU;
      hash_ *= 0x100000001b3ULL;
    }
    return *this;
  }
  Fnv& add(double value) { return add(std::bit_cast<std::uint64_t>(value)); }
  Fnv& add(std::string_view text) {
    for (const char c : text) {
      hash_ ^= static_cast<unsigned char>(c);
      hash_ *= 0x100000001b3ULL;
    }
    return *this;
  }
  Fnv& add(const sim::Distribution& d) {
    add(static_cast<std::uint64_t>(d.count()));
    if (d.empty()) {
      return *this;
    }
    add(d.mean()).add(d.min()).add(d.max()).add(d.stddev());
    add(d.quantile(0.5)).add(d.quantile(0.9)).add(d.samples_folded());
    for (const double sample : d.samples()) {
      add(sample);
    }
    return *this;
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

#define EXPECT_DIGEST(actual, expected)                                \
  EXPECT_EQ(static_cast<std::uint64_t>(actual),                        \
            static_cast<std::uint64_t>(expected))                      \
      << #actual " = 0x" << std::hex << static_cast<std::uint64_t>(actual)
#define EXPECT_BITS(actual, expected)                                  \
  EXPECT_EQ(std::bit_cast<std::uint64_t>(static_cast<double>(actual)), \
            std::bit_cast<std::uint64_t>(static_cast<double>(expected))) \
      << #actual " = " << std::hexfloat << static_cast<double>(actual)

std::uint64_t digest(const sim::SimulationReport& r) {
  return Fnv()
      .add(r.clients_served)
      .add(r.jitter_events)
      .add(static_cast<std::uint64_t>(r.max_concurrent_downloads))
      .add(r.peak_server_rate.v)
      .add(r.fault_hits)
      .add(r.fault_repairs)
      .add(r.fault_degraded)
      .add(r.latency_minutes)
      .add(r.buffer_peak_mbits)
      .add(r.fault_penalty_minutes)
      .value();
}

std::uint64_t digest(const ctrl::AdaptiveReport& r) {
  Fnv f;
  f.add(r.wait_minutes).add(r.hot_wait_minutes).add(r.tail_wait_minutes);
  for (const std::uint64_t count :
       {r.served_hot, r.served_tail, r.unserved, r.epochs, r.reallocs,
        r.promotions, r.demotions, r.drains_completed, r.deferred_promotions,
        r.degraded_epochs, r.fault_forced_demotions, r.fault_restarts}) {
    f.add(count);
  }
  f.add(static_cast<std::uint64_t>(r.channels_per_video))
      .add(r.broadcast_worst_latency.v)
      .add(static_cast<std::uint64_t>(r.degraded))
      .add(static_cast<std::uint64_t>(r.converged_epochs_after_flip));
  for (const auto title : r.final_hot) {
    f.add(static_cast<std::uint64_t>(title));
  }
  return f.value();
}

std::uint64_t digest(const batching::MulticastReport& r) {
  return Fnv()
      .add(r.wait_minutes)
      .add(r.batch_size)
      .add(r.served)
      .add(r.reneged)
      .add(r.streams_started)
      .add(r.channel_utilization)
      .value();
}

std::uint64_t digest(const metro::FederationReport& r) {
  Fnv f;
  f.add(r.arrivals)
      .add(r.served_local)
      .add(r.rerouted)
      .add(r.rejected)
      .add(r.link_mbits)
      .add(r.wait_minutes)
      .add(static_cast<std::uint64_t>(r.replicated_titles))
      .add(static_cast<std::uint64_t>(r.tail_slots_total))
      .add(r.broadcast_latency_min);
  for (const auto& region : r.regions) {
    f.add(region.arrivals)
        .add(region.served_local)
        .add(region.rerouted_out)
        .add(region.rerouted_in)
        .add(region.rejected)
        .add(region.link_mbits)
        .add(region.wait_minutes);
  }
  return f.value();
}

const core::VideoParams kTwoHourVideo{core::Minutes{120.0},
                                      core::MbitPerSec{1.5}};

sim::SimulationConfig pinned_sim_config(bool plan_cache) {
  sim::SimulationConfig config;
  config.horizon = core::Minutes{240.0};
  config.arrivals_per_minute = 4.0;
  config.seed = 42;
  config.plan_clients = true;
  config.plan_cache = plan_cache;
  return config;
}

TEST(EngineReportPinTest, SimulateWithPlanCacheOnAndOff) {
  const schemes::SkyscraperScheme sb(52);
  const schemes::DesignInput input{
      .server_bandwidth = core::MbitPerSec{300.0},
      .num_videos = 10,
      .video = kTwoHourVideo,
  };
  for (const bool cache : {true, false}) {
    SCOPED_TRACE(cache ? "plan cache on" : "plan cache off");
    const auto report = sim::simulate(sb, input, pinned_sim_config(cache));
    EXPECT_EQ(report.clients_served, 983U);
    EXPECT_BITS(report.latency_minutes.mean(), 0x1.6ff5fa1767772p-4);
    EXPECT_BITS(report.buffer_peak_mbits.mean(), 0x1.c01d397e9a16dp+8);
    EXPECT_DIGEST(digest(report), 0xf3789fd212d159c0);
  }
}

TEST(EngineReportPinTest, SimulateWithFaultPlanAndStatsCap) {
  const schemes::SkyscraperScheme sb(12);
  const schemes::DesignInput input{
      .server_bandwidth = core::MbitPerSec{300.0},
      .num_videos = 10,
      .video = kTwoHourVideo,
  };
  fault::PlanSpec spec;
  spec.horizon_min = 240.0;
  spec.channels = 10;
  spec.outages = 2;
  spec.bursts = 2;
  spec.disk_stalls = 1;
  spec.server_restart = true;
  const fault::Injector injector{fault::Plan::generate(spec, 7),
                                 fault::RecoveryPolicy{.retry_budget = 1}};
  auto config = pinned_sim_config(true);
  config.injector = &injector;
  config.stats_sample_cap = 256;
  const auto report = sim::simulate(sb, input, config);
  EXPECT_EQ(report.clients_served, 983U);
  EXPECT_EQ(report.fault_hits, 1268U);
  EXPECT_EQ(report.fault_repairs, 964U);
  EXPECT_BITS(report.fault_penalty_minutes.mean(), 0x1.f9ad28a3a58ebp+0);
  EXPECT_DIGEST(digest(report), 0x170626761f0e5a8c);
}

// A flip, a restart episode and the first control epoch each land exactly
// on an arrival's time, so the report depends on the equal-time tie rule:
// an arrival fires before any server event at its own time.
TEST(EngineReportPinTest, AdaptiveWithServerEventsAtArrivalTimes) {
  ctrl::AdaptiveConfig config;
  config.total_bandwidth = core::MbitPerSec{72.0};
  config.catalog_size = 40;
  config.hot_titles = 8;
  config.broadcast_channels_per_video = 4;
  config.video = core::VideoParams{core::Minutes{30.0}, core::MbitPerSec{1.5}};
  config.arrivals_per_minute = 6.0;
  config.horizon = core::Minutes{600.0};
  config.half_life = core::Minutes{30.0};
  config.min_tail_channels = 4;
  config.seed = 11;
  workload::RequestGenerator generator(
      workload::zipf_probabilities(config.catalog_size, config.zipf_theta),
      config.arrivals_per_minute, util::Rng(config.seed));
  const auto stream = generator.generate_until(config.horizon);
  ASSERT_GT(stream.size(), 1800U);
  config.epoch = stream[180].arrival;    // ~30 min
  config.flip_at = stream[1800].arrival;  // ~300 min
  // The restart lands on an arrival of the hottest title, which is on a
  // broadcast plan: whether that arrival tunes before or after the plan
  // restarts changes its wait.
  std::size_t restart_at = 1200;
  while (stream[restart_at].video != 0) {
    ++restart_at;
  }
  const fault::Injector injector{fault::Plan(
      {fault::Episode{.kind = fault::EpisodeKind::kServerRestart,
                      .start_min = stream[restart_at].arrival.v,
                      .end_min = stream[restart_at].arrival.v,
                      .channel = -1}},
      1)};
  config.injector = &injector;

  const batching::MqlPolicy policy;
  const auto report = ctrl::simulate_adaptive(policy, config);
  EXPECT_EQ(report.served_hot, 2716U);
  EXPECT_EQ(report.served_tail, 916U);
  EXPECT_EQ(report.epochs, 19U);
  EXPECT_EQ(report.fault_restarts, 1U);
  EXPECT_BITS(report.wait_minutes.mean(), 0x1.8d25a26da643bp+2);
  EXPECT_DIGEST(digest(report), 0xdf59e18fe0aa0e05);

  // A sink changes nothing in the report, and the engine's traffic counters
  // count every arrival once as scheduled and once as fired.
  obs::Sink sink;
  config.sink = &sink;
  const auto observed = ctrl::simulate_adaptive(policy, config);
  EXPECT_EQ(digest(observed), digest(report));
  EXPECT_EQ(sink.metrics.counter("sim.event_queue.scheduled").value(), 3995U);
  EXPECT_EQ(sink.metrics.counter("sim.event_queue.fired").value(), 3979U);
}

// Arrivals on whole minutes tie with each other and with batch completions
// (30-minute streams), so dispatch order depends on the tie rule; patience
// makes waiters renege.
TEST(EngineReportPinTest, ScheduledMulticastFcfsAndMqlWithReneges) {
  workload::RequestGenerator generator(workload::zipf_probabilities(20), 2.0,
                                       util::Rng(5));
  auto requests = generator.generate_until(core::Minutes{600.0});
  for (auto& request : requests) {
    request.arrival = core::Minutes{std::floor(request.arrival.v)};
  }
  batching::MulticastConfig config;
  config.channels = 4;
  config.video_length = core::Minutes{30.0};
  config.horizon = core::Minutes{600.0};
  config.mean_patience = core::Minutes{10.0};
  config.seed = 9;

  const auto fcfs = batching::simulate_scheduled_multicast(
      batching::FcfsPolicy(), requests, 20, config);
  EXPECT_EQ(fcfs.served, 286U);
  EXPECT_EQ(fcfs.reneged, 923U);
  EXPECT_EQ(fcfs.streams_started, 82U);
  EXPECT_BITS(fcfs.wait_minutes.mean(), 0x1.3p+3);
  EXPECT_DIGEST(digest(fcfs), 0x16296c2f9763dfa9);

  const auto mql = batching::simulate_scheduled_multicast(
      batching::MqlPolicy(), requests, 20, config);
  EXPECT_EQ(mql.served, 308U);
  EXPECT_EQ(mql.reneged, 902U);
  EXPECT_EQ(mql.streams_started, 82U);
  EXPECT_BITS(mql.wait_minutes.mean(), 0x1.009f959c427e5p+3);
  EXPECT_DIGEST(digest(mql), 0xb6a8fc78ecd8560a);
}

// 1000 arrivals/min over 300 min: about 300k arrivals, several times the
// federation's arrival window. Region 1 goes dark across two window
// boundaries and the sample cap folds every distribution mid-run.
TEST(EngineReportPinTest, FederationWithDarkRegionAndStatsCap) {
  const metro::Topology topology({{400.0, 120},
                                  {300.0, 120},
                                  {200.0, 120},
                                  {100.0, 120}},
                                 8, core::Minutes{0.5});
  metro::FederationConfig config;
  config.catalog_size = 40;
  config.replicate_top = 6;
  config.horizon = core::Minutes{300.0};
  config.seed = 11;
  config.stats_sample_cap = 1024;
  config.fault_plans.assign(4, {});
  config.fault_plans[1] = fault::Plan(
      {fault::Episode{fault::EpisodeKind::kChannelOutage, 50.0, 150.0, -1,
                      {}}},
      1);

  const auto serial = metro::simulate_federation(topology, config);
  EXPECT_EQ(serial.arrivals, 299506U);
  EXPECT_EQ(serial.rerouted, 44U);
  EXPECT_EQ(serial.rejected, 106565U);
  EXPECT_BITS(serial.link_mbits, 0x1.790dp+21);
  EXPECT_BITS(serial.wait_minutes.mean(), 0x1.847b2a3335efbp+3);
  EXPECT_DIGEST(digest(serial), 0x4df167a7381eca9f);

  util::TaskPool pool(2);
  obs::Sink sink;
  config.sink = &sink;
  const auto pooled = metro::simulate_federation(topology, config, &pool);
  EXPECT_EQ(digest(pooled), digest(serial));
  EXPECT_EQ(sink.metrics.counter("metro.arrivals").value(), 299506U);
  EXPECT_EQ(sink.spans.recorded(), 221327U);
}


// ---------------------------------------------------------------------------
// Replication and session-span pins. Every replicated run and every span
// export below was captured before the replicated runs moved onto one
// driver (sim::replicate) and the session span trees onto one emitter
// (obs::record_session); both moves had to leave each value unchanged.
// ctrl's confidence interval is the one exception — it switched from the
// population to the sample standard deviation — so it is not pinned here;
// test_ctrl checks it against the formula.

std::uint64_t text_digest(const std::string& text) {
  return Fnv().add(std::string_view(text)).value();
}

const schemes::DesignInput kPinnedSbInput{
    .server_bandwidth = core::MbitPerSec{300.0},
    .num_videos = 10,
    .video = kTwoHourVideo,
};

ctrl::AdaptiveConfig pinned_flip_config() {
  ctrl::AdaptiveConfig config;
  config.total_bandwidth = core::MbitPerSec{72.0};
  config.catalog_size = 40;
  config.hot_titles = 8;
  config.broadcast_channels_per_video = 4;
  config.video = core::VideoParams{core::Minutes{30.0}, core::MbitPerSec{1.5}};
  config.arrivals_per_minute = 6.0;
  config.horizon = core::Minutes{300.0};
  config.epoch = core::Minutes{30.0};
  config.half_life = core::Minutes{30.0};
  config.min_tail_channels = 4;
  config.flip_at = core::Minutes{150.0};
  config.seed = 11;
  return config;
}

TEST(ReplicationPinTest, SimulateReplicatedWithSink) {
  const schemes::SkyscraperScheme sb(52);
  auto config = pinned_sim_config(true);
  config.horizon = core::Minutes{40.0};
  obs::Sink sink(1U << 17, 1U << 17);
  config.sink = &sink;
  util::TaskPool pool(4);
  const auto replicated =
      sim::simulate_replicated(sb, kPinnedSbInput, config, 3, &pool);
  EXPECT_EQ(replicated.replications, 3U);
  EXPECT_DIGEST(digest(replicated.merged), 0xfe7d720c0a1e7024);
  EXPECT_DIGEST(Fnv().add(replicated.replication_means).value(),
                0x49b343dca65a58d5);
  EXPECT_BITS(replicated.mean_ci95, 0x1.ecb9b9a2233dep-8);
  EXPECT_DIGEST(text_digest(sink.spans.to_jsonl()), 0x04fd1590af68dcab);
  EXPECT_DIGEST(text_digest(sink.trace.to_jsonl()), 0x2b87aa36e52d60cd);
}

TEST(ReplicationPinTest, AdaptiveReplicatedWithSink) {
  auto config = pinned_flip_config();
  obs::Sink sink(1U << 17, 1U << 17);
  config.sink = &sink;
  util::TaskPool pool(4);
  const auto replicated = ctrl::simulate_adaptive_replicated(
      batching::MqlPolicy(), config, 3, &pool);
  EXPECT_EQ(replicated.replications, 3U);
  EXPECT_DIGEST(digest(replicated.merged), 0x407b69663e4ab8dd);
  EXPECT_DIGEST(Fnv().add(replicated.replication_means).value(),
                0xcdead6d141e54e96);
  EXPECT_DIGEST(text_digest(sink.spans.to_jsonl()), 0xc371a9c5e2ad400b);
  EXPECT_DIGEST(text_digest(sink.trace.to_jsonl()), 0x681376578d6d4f71);
}

TEST(ReplicationPinTest, FederationReplicatedWithSink) {
  const metro::Topology topology({{60.0, 80}, {40.0, 80}, {20.0, 80}}, 4,
                                 core::Minutes{0.5});
  metro::FederationConfig config;
  config.catalog_size = 40;
  config.replicate_top = 6;
  config.horizon = core::Minutes{120.0};
  config.seed = 11;
  config.fault_plans.assign(3, {});
  config.fault_plans[1] = fault::Plan(
      {fault::Episode{fault::EpisodeKind::kChannelOutage, 30.0, 90.0, -1,
                      {}}},
      1);
  obs::Sink sink(1U << 17, 1U << 17);
  config.sink = &sink;
  util::TaskPool pool(2);
  const auto replicated =
      metro::simulate_federation_replicated(topology, config, 3, &pool);
  EXPECT_EQ(replicated.replications, 3U);
  EXPECT_DIGEST(digest(replicated.merged), 0xd2f180a7e352ba0d);
  EXPECT_DIGEST(Fnv().add(replicated.replication_means).value(),
                0x77c046bbdddcb919);
  EXPECT_BITS(replicated.mean_ci95, 0x1.e12e533bcc5d5p-5);
  EXPECT_DIGEST(text_digest(sink.spans.to_jsonl()), 0x5106c764c0cb08a3);
  EXPECT_EQ(sink.trace.recorded(), 0U);  // the federation records spans only
}

/// Session spans that hang off another span (ctrl's epoch-absorbed ones).
std::size_t parented_sessions(const obs::SpanTracer& spans) {
  std::size_t n = 0;
  for (const auto& span : spans.spans()) {
    n += span.phase == obs::SpanPhase::kSession && span.parent != 0 ? 1 : 0;
  }
  return n;
}

TEST(SessionSpanPinTest, Simulate) {
  const schemes::SkyscraperScheme sb(52);
  auto config = pinned_sim_config(true);
  config.horizon = core::Minutes{60.0};
  obs::Sink sink(1U << 17, 1U << 17);
  config.sink = &sink;
  (void)sim::simulate(sb, kPinnedSbInput, config);
  EXPECT_EQ(sink.spans.dropped(), 0U);
  EXPECT_DIGEST(text_digest(sink.spans.to_jsonl()), 0x04c4f40d2908a2d4);
}

TEST(SessionSpanPinTest, ScheduledMulticastFcfsWithReneges) {
  workload::RequestGenerator generator(workload::zipf_probabilities(20), 2.0,
                                       util::Rng(5));
  auto requests = generator.generate_until(core::Minutes{600.0});
  for (auto& request : requests) {
    request.arrival = core::Minutes{std::floor(request.arrival.v)};
  }
  batching::MulticastConfig config;
  config.channels = 4;
  config.video_length = core::Minutes{30.0};
  config.horizon = core::Minutes{600.0};
  config.mean_patience = core::Minutes{10.0};
  config.seed = 9;
  obs::Sink sink(1U << 17, 1U << 17);
  config.sink = &sink;
  const auto report = batching::simulate_scheduled_multicast(
      batching::FcfsPolicy(), requests, 20, config);
  EXPECT_GT(report.reneged, 0U);
  EXPECT_EQ(sink.spans.dropped(), 0U);
  EXPECT_DIGEST(text_digest(sink.spans.to_jsonl()), 0x45826c79f1b5ddfc);
}

TEST(SessionSpanPinTest, EvaluateHybrid) {
  batching::HybridConfig config;
  config.catalog_size = 60;
  config.hot_titles = 8;
  config.arrivals_per_minute = 3.0;
  config.horizon = core::Minutes{600.0};
  config.mean_patience = core::Minutes{20.0};
  config.seed = 11;
  obs::Sink sink(1U << 17, 1U << 17);
  config.sink = &sink;
  const auto report = batching::evaluate_hybrid(batching::MqlPolicy(), config);
  EXPECT_GT(report.multicast.served, 0U);
  EXPECT_EQ(sink.spans.dropped(), 0U);
  EXPECT_DIGEST(text_digest(sink.spans.to_jsonl()), 0x656cb1cade82593a);
}

TEST(SessionSpanPinTest, AdaptiveWithFlipRestartAndAbsorbedQueues) {
  auto config = pinned_flip_config();
  const fault::Injector injector{fault::Plan(
      {fault::Episode{.kind = fault::EpisodeKind::kServerRestart,
                      .start_min = 100.0,
                      .end_min = 100.0,
                      .channel = -1}},
      1)};
  config.injector = &injector;
  obs::Sink sink(1U << 17, 1U << 17);
  config.sink = &sink;
  const auto report =
      ctrl::simulate_adaptive(batching::MqlPolicy(), config);
  EXPECT_EQ(report.fault_restarts, 1U);
  EXPECT_GT(report.promotions, 0U);
  EXPECT_GT(parented_sessions(sink.spans), 0U);
  EXPECT_EQ(sink.spans.dropped(), 0U);
  EXPECT_DIGEST(text_digest(sink.spans.to_jsonl()), 0x6e52bb7ff83492df);
}


// ---------------------------------------------------------------------------
// Registry export pins. One registry holds every instrument kind unlabeled,
// labeled and past its cardinality cap (an overflow series plus
// obs.labels_dropped); a second is a fixed-order fold of three such shards,
// whose differing label tuples overflow again during the fold. The digests
// are of to_json() and to_openmetrics() as they were when the registry kept
// its unlabeled instruments in a store of their own, so every export of
// metrics has to stay byte-identical. Labeled names sort before the
// unlabeled ones of their kind, which pins "unlabeled series first".

void fill_pinned_shard(obs::Registry& reg, std::uint64_t shard) {
  const auto s = static_cast<double>(shard);
  reg.counter("pin.requests").add(3 + shard);
  reg.gauge("pin.peak_rate").max_of(2.5 * (s + 1.0));
  auto& wait = reg.histogram("pin.wait_min", {0.5, 1.0, 5.0});
  for (const double v : {0.25 + s, 0.75 * (s + 1.0), 7.0}) {
    wait.observe(v);
  }
  auto& sketch = reg.sketch("pin.wait_sketch_min");
  for (const double v : {0.0, 0.3 * (s + 1.0), 12.5, 1e-3}) {
    sketch.observe(v);
  }
  // Cap 2: two tuples fit, the third of each shard overflows.
  auto& by_title = reg.counter_family("pin.by_title", {"title"}, 2);
  by_title.with({"a\"b"}).add(2);
  by_title.with_ids({10 + shard}).add(1 + shard);
  by_title.with_ids({7}).add(5);
  auto& util = reg.gauge_family("pin.channel.util", {"channel"}, 2);
  util.with_ids({0}).set(0.125 * (s + 1.0));
  util.with_ids({1 + shard}).set(0.5);
  util.with_ids({9}).max_of(0.875);
  auto& batch = reg.histogram_family("pin.batch", {"title"}, {1.0, 4.0}, 2);
  batch.with_ids({3}).observe(2.0 + s);
  batch.with_ids({4 + shard}).observe(0.5);
  batch.with_ids({8}).observe(9.0);
  auto& client_wait = reg.sketch_family("pin.client.wait",
                                        {"title", "region"}, {}, 2);
  client_wait.with({"1", "north"}).observe(0.4 * (s + 1.0));
  client_wait.with({std::to_string(2 + shard), "south"}).observe(3.0);
  client_wait.with({"9", "east"}).observe(0.0);
}

TEST(RegistryExportPinTest, EveryKindUnlabeledLabeledAndOverflowing) {
  obs::Registry reg;
  fill_pinned_shard(reg, 0);
  EXPECT_EQ(reg.counter("obs.labels_dropped").value(), 4U);
  EXPECT_DIGEST(text_digest(reg.to_json()), 0x5d236438f48f70b7);
  EXPECT_DIGEST(text_digest(reg.to_openmetrics()), 0xdc63b7a8a4dc1638);
}

TEST(RegistryExportPinTest, FixedOrderFoldOfThreeShards) {
  std::array<obs::Registry, 3> shards;
  for (std::uint64_t i = 0; i < shards.size(); ++i) {
    fill_pinned_shard(shards[i], i);
  }
  obs::Registry fold;
  for (const auto& shard : shards) {
    fold.merge_from(shard);
  }
  // 4 drops per shard, plus 2 per family where the fold itself overflows.
  EXPECT_EQ(fold.counter("obs.labels_dropped").value(), 20U);
  EXPECT_DIGEST(text_digest(fold.to_json()), 0x6752cbce346743a1);
  EXPECT_DIGEST(text_digest(fold.to_openmetrics()), 0x8b390dd4e1d657b9);
}

}  // namespace
}  // namespace vodbcast
