#include "metro/federation.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <vector>

#include "metro/placement.hpp"
#include "metro/router.hpp"
#include "metro/topology.hpp"
#include "obs/sink.hpp"
#include "schemes/skyscraper.hpp"
#include "workload/zipf.hpp"

namespace vodbcast::metro {
namespace {

Topology four_regions(int channels = 120, int link_capacity = 8) {
  return Topology({{120.0, channels},
                   {90.0, channels},
                   {60.0, channels},
                   {30.0, channels}},
                  link_capacity, core::Minutes{0.5});
}

FederationConfig small_config() {
  FederationConfig config;
  config.catalog_size = 40;
  config.replicate_top = 6;
  config.horizon = core::Minutes{120.0};
  config.seed = 11;
  return config;
}

TEST(TopologyTest, ValidatesInputs) {
  EXPECT_THROW(Topology({}, 4, core::Minutes{0.5}), std::invalid_argument);
  EXPECT_THROW(Topology({{0.0, 10}}, 4, core::Minutes{0.5}),
               std::invalid_argument);
  EXPECT_THROW(Topology({{1.0, 0}}, 4, core::Minutes{0.5}),
               std::invalid_argument);
  EXPECT_THROW(Topology({{1.0, 10}}, -1, core::Minutes{0.5}),
               std::invalid_argument);
  EXPECT_THROW(Topology({{1.0, 10}}, 4, core::Minutes{-0.5}),
               std::invalid_argument);
}

TEST(TopologyTest, RingHopDistanceAndTransit) {
  const auto topo = four_regions();
  EXPECT_EQ(topo.hops(0, 0), 0);
  EXPECT_EQ(topo.hops(0, 1), 1);
  EXPECT_EQ(topo.hops(0, 2), 2);
  EXPECT_EQ(topo.hops(0, 3), 1);  // around the ring
  EXPECT_EQ(topo.hops(3, 0), 1);
  EXPECT_DOUBLE_EQ(topo.transit(0, 2).v, 1.0);
  EXPECT_DOUBLE_EQ(topo.total_arrivals_per_minute(), 300.0);
  EXPECT_EQ(topo.total_channels(), 480);
}

TEST(PlacementTest, HeadReplicatedTailPartitioned) {
  const auto topo = four_regions();
  const PlacementSolver solver(50, workload::kPaperSkew);
  const auto placement = solver.solve(topo, 10);
  EXPECT_EQ(placement.replicated, 10U);
  // The prior ranking is the Zipf order: title id == rank.
  for (std::size_t rank = 0; rank < 50; ++rank) {
    EXPECT_EQ(placement.ranking[rank], rank);
    EXPECT_EQ(placement.rank_of[rank], rank);
  }
  for (core::VideoId v = 0; v < 50; ++v) {
    if (v < 10) {
      EXPECT_TRUE(placement.is_replicated(v));
      for (std::size_t r = 0; r < topo.size(); ++r) {
        EXPECT_TRUE(placement.hosts(r, v));
      }
    } else {
      ASSERT_GE(placement.home[v], 0);
      ASSERT_LT(placement.home[v], 4);
      EXPECT_TRUE(
          placement.hosts(static_cast<std::size_t>(placement.home[v]), v));
    }
  }
  // Equal budgets: tail mass stays balanced within one title's weight.
  double lo = placement.tail_mass[0];
  double hi = placement.tail_mass[0];
  for (const double mass : placement.tail_mass) {
    lo = std::min(lo, mass);
    hi = std::max(hi, mass);
  }
  EXPECT_LT(hi - lo, solver.popularity()[10]);
}

TEST(PlacementTest, ReplicationDegreeClampsToCatalog) {
  const auto topo = four_regions();
  const PlacementSolver solver(20, workload::kPaperSkew);
  const auto placement = solver.solve(topo, 100);
  EXPECT_EQ(placement.replicated, 20U);
  for (core::VideoId v = 0; v < 20; ++v) {
    EXPECT_TRUE(placement.is_replicated(v));
  }
}

TEST(RouterTest, BroadcastServedLocallyAndFailsOverWhenDark) {
  const auto topo = four_regions();
  const PlacementSolver solver(40, workload::kPaperSkew);
  const auto placement = solver.solve(topo, 5);
  // Region 0 dark for the first 60 minutes.
  std::vector<fault::Plan> plans(4);
  plans[0] = fault::Plan(
      {fault::Episode{fault::EpisodeKind::kChannelOutage, 0.0, 60.0, -1, {}}},
      1);
  RouterConfig rc;
  rc.fault_plans = &plans;
  Router router(topo, placement, {10, 10, 10, 10}, rc);

  EXPECT_TRUE(router.dark(0, 30.0));
  EXPECT_FALSE(router.dark(0, 60.0));
  EXPECT_FALSE(router.dark(1, 30.0));

  // Dark origin: the cheapest non-dark neighbor (region 1, one hop from 0,
  // lower index than region 3) serves the broadcast over the link.
  const auto spilled = router.route({core::Minutes{10.0}, 0, 0});
  EXPECT_EQ(spilled.kind, RouteKind::kRerouted);
  EXPECT_EQ(spilled.served_by, 1U);
  EXPECT_TRUE(spilled.broadcast);
  EXPECT_DOUBLE_EQ(spilled.transit_min, 0.5);
  EXPECT_GT(spilled.link_mbits, 0.0);

  // After the outage the origin's own broadcast serves with no penalty.
  const auto local = router.route({core::Minutes{70.0}, 0, 0});
  EXPECT_EQ(local.kind, RouteKind::kLocal);
  EXPECT_EQ(local.served_by, 0U);
  EXPECT_DOUBLE_EQ(local.transit_min, 0.0);
  EXPECT_DOUBLE_EQ(local.link_mbits, 0.0);
}

TEST(RouterTest, BroadcastRejectedWhenEveryRegionDark) {
  const auto topo = four_regions();
  const PlacementSolver solver(40, workload::kPaperSkew);
  const auto placement = solver.solve(topo, 5);
  std::vector<fault::Plan> plans(4);
  for (auto& plan : plans) {
    plan = fault::Plan({fault::Episode{fault::EpisodeKind::kChannelOutage,
                                       0.0, 100.0, -1, {}}},
                       1);
  }
  RouterConfig rc;
  rc.fault_plans = &plans;
  Router router(topo, placement, {10, 10, 10, 10}, rc);
  const auto d = router.route({core::Minutes{10.0}, 0, 2});
  EXPECT_EQ(d.kind, RouteKind::kRejected);
}

TEST(RouterTest, TailBatchesAndSpillsWhenSaturated) {
  const Topology topo({{10.0, 20}, {10.0, 20}}, 8, core::Minutes{0.5});
  const PlacementSolver solver(10, workload::kPaperSkew);
  const auto placement = solver.solve(topo, 0);  // everything is tail
  RouterConfig rc;
  rc.video = core::VideoParams{core::Minutes{30.0}, core::MbitPerSec{1.5}};
  rc.patience = core::Minutes{40.0};
  rc.spill_wait = core::Minutes{2.0};
  // One slot per region so a single stream saturates a head end.
  Router router(topo, placement, {1, 1}, rc);

  // Pick a title homed at region 0 and one homed at region 1.
  core::VideoId at0 = 0;
  core::VideoId at1 = 0;
  for (core::VideoId v = 0; v < 10; ++v) {
    (placement.home[v] == 0 ? at0 : at1) = v;
  }
  ASSERT_EQ(placement.home[at0], 0);
  ASSERT_EQ(placement.home[at1], 1);

  // First request occupies region 0's only slot immediately.
  const auto first = router.route({core::Minutes{0.0}, at0, 0});
  EXPECT_EQ(first.kind, RouteKind::kLocal);
  EXPECT_DOUBLE_EQ(first.queue_wait_min, 0.0);

  // A same-instant follower joins the scheduled stream (batching).
  const auto join = router.route({core::Minutes{0.0}, at0, 0});
  EXPECT_EQ(join.kind, RouteKind::kLocal);
  EXPECT_DOUBLE_EQ(join.queue_wait_min, 0.0);

  // A different title now finds region 0 saturated (next slot frees at
  // minute 30 > spill_wait) and spills to region 1's free slot: a fetch
  // from home 0 to substitute 1 plus in-region delivery at 1... the
  // subscriber is at region 0, so delivery crosses back (two link legs).
  core::VideoId other0 = at0;
  for (core::VideoId v = 0; v < 10; ++v) {
    if (placement.home[v] == 0 && v != at0) {
      other0 = v;
    }
  }
  ASSERT_NE(other0, at0);
  const auto spill = router.route({core::Minutes{1.0}, other0, 0});
  EXPECT_EQ(spill.kind, RouteKind::kRerouted);
  EXPECT_EQ(spill.served_by, 1U);
  EXPECT_DOUBLE_EQ(spill.transit_min, 1.0);  // 0->1 fetch + 1->0 delivery

  // Both slots busy: the next request for region 1's title queues at its
  // home within patience (29 min until the spill stream's slot frees).
  const auto queued = router.route({core::Minutes{2.0}, at1, 1});
  EXPECT_EQ(queued.kind, RouteKind::kLocal);
  EXPECT_DOUBLE_EQ(queued.queue_wait_min, 29.0);  // slot frees at 31
}

// The spill order is tabulated per (home, origin) pair when the router is
// built. On a 6-region ring the substitutes for home h and origin o rank
// by hops(h, s) + hops(s, o), lowest index on ties. Each region has one
// tail slot: the home is saturated first, then the first k substitutes in
// that order, and the spill must land on the (k+1)-th.
TEST(RouterTest, SpillFollowsTheHopCostOrderOnASixRegionRing) {
  const Topology topo({{10.0, 20}, {10.0, 20}, {10.0, 20}, {10.0, 20},
                       {10.0, 20}, {10.0, 20}},
                      8, core::Minutes{0.5});
  const PlacementSolver solver(60, workload::kPaperSkew);
  const auto placement = solver.solve(topo, 0);  // everything is tail
  RouterConfig rc;
  rc.video = core::VideoParams{core::Minutes{30.0}, core::MbitPerSec{1.5}};
  rc.patience = core::Minutes{40.0};
  rc.spill_wait = core::Minutes{2.0};
  // The first title homed at `region`.
  const auto homed_at = [&](std::size_t region) {
    for (core::VideoId v = 0; v < 60; ++v) {
      if (placement.home[v] == static_cast<int>(region)) {
        return v;
      }
    }
    ADD_FAILURE() << "no title homed at region " << region;
    return core::VideoId{0};
  };
  const struct {
    std::size_t home, origin;
    std::vector<std::uint32_t> order;
  } pairs[] = {
      // Costs 2, 2, 4, 4, 4: regions 1 and 2 tie on cost.
      {0, 2, {1, 2, 3, 4, 5}},
      // Costs 1 (the origin), 3, 3, 5, 5: index order would put 1 first.
      {5, 4, {4, 0, 3, 1, 2}},
  };
  for (const auto& pair : pairs) {
    for (std::size_t k = 0; k + 1 < pair.order.size(); ++k) {
      SCOPED_TRACE(::testing::Message() << "home " << pair.home << " origin "
                                        << pair.origin << " busy " << k);
      Router router(topo, placement, std::vector<int>(6, 1), rc);
      const core::VideoId title = homed_at(pair.home);
      ASSERT_EQ(router.route({core::Minutes{0.0}, title,
                              static_cast<std::uint32_t>(pair.home)})
                    .kind,
                RouteKind::kLocal);
      for (std::size_t i = 0; i < k; ++i) {
        const std::uint32_t busy = pair.order[i];
        ASSERT_EQ(
            router.route({core::Minutes{0.0}, homed_at(busy), busy}).kind,
            RouteKind::kLocal);
      }
      // The home's stream for `title` has started, so this request cannot
      // join it and must spill.
      const auto spill = router.route(
          {core::Minutes{1.0}, title, static_cast<std::uint32_t>(pair.origin)});
      const std::uint32_t expected = pair.order[k];
      EXPECT_EQ(spill.kind, RouteKind::kRerouted);
      EXPECT_EQ(spill.served_by, expected);
      EXPECT_DOUBLE_EQ(spill.transit_min,
                       topo.transit(pair.home, expected).v +
                           topo.transit(expected, pair.origin).v);
    }
  }
}

TEST(RouterTest, TailRenegesBeyondPatience) {
  const Topology topo({{10.0, 20}, {10.0, 20}}, 8, core::Minutes{0.5});
  const PlacementSolver solver(10, workload::kPaperSkew);
  const auto placement = solver.solve(topo, 0);
  RouterConfig rc;
  rc.video = core::VideoParams{core::Minutes{30.0}, core::MbitPerSec{1.5}};
  rc.patience = core::Minutes{5.0};
  rc.spill_wait = core::Minutes{2.0};
  Router router(topo, placement, {1, 1}, rc);

  core::VideoId at0 = 0;
  for (core::VideoId v = 0; v < 10; ++v) {
    if (placement.home[v] == 0) {
      at0 = v;
    }
  }
  ASSERT_EQ(placement.home[at0], 0);
  // Occupy both regions' single slots.
  EXPECT_EQ(router.route({core::Minutes{0.0}, at0, 0}).kind,
            RouteKind::kLocal);
  core::VideoId other0 = at0;
  for (core::VideoId v = 0; v < 10; ++v) {
    if (placement.home[v] == 0 && v != at0) {
      other0 = v;
    }
  }
  ASSERT_NE(other0, at0);
  EXPECT_EQ(router.route({core::Minutes{1.0}, other0, 0}).kind,
            RouteKind::kRerouted);
  // Not joinable (at0's stream already started), both slots busy for ~28
  // more minutes > patience 5: the subscriber reneges.
  EXPECT_EQ(router.route({core::Minutes{2.0}, at0, 0}).kind,
            RouteKind::kRejected);
}

TEST(FederationTest, ConservationAndReportsConsistent) {
  const auto topo = four_regions();
  const auto config = small_config();
  const auto report = simulate_federation(topo, config);
  EXPECT_GT(report.arrivals, 0U);
  EXPECT_EQ(report.served_local + report.rerouted + report.rejected,
            report.arrivals);
  EXPECT_EQ(report.wait_minutes.count(), report.arrivals);
  std::uint64_t arrivals = 0;
  std::uint64_t rerouted_out = 0;
  std::uint64_t rerouted_in = 0;
  ASSERT_EQ(report.regions.size(), 4U);
  for (const auto& region : report.regions) {
    EXPECT_EQ(region.served_local + region.rerouted_out + region.rejected,
              region.arrivals);
    arrivals += region.arrivals;
    rerouted_out += region.rerouted_out;
    rerouted_in += region.rerouted_in;
  }
  EXPECT_EQ(arrivals, report.arrivals);
  EXPECT_EQ(rerouted_out, rerouted_in);
  // The replicated head's D1 matches the SB design it claims to use.
  const schemes::SkyscraperScheme sb(config.sb_width);
  const auto eval = sb.evaluate(schemes::DesignInput{
      core::MbitPerSec{config.video.display_rate.v *
                       config.sb_channels_per_title},
      1, config.video});
  ASSERT_TRUE(eval.has_value());
  EXPECT_DOUBLE_EQ(report.broadcast_latency_min,
                   eval->metrics.access_latency.v);
}

TEST(FederationTest, MetricsFamiliesConserveArrivals) {
  const auto topo = four_regions();
  auto config = small_config();
  obs::Sink sink;
  config.sink = &sink;
  const auto report = simulate_federation(topo, config);
  const auto snapshot = sink.metrics.snapshot();
  std::uint64_t total = 0;
  std::uint64_t family_sum = 0;
  for (const auto& series : snapshot.counters) {
    if (series.name == "metro.arrivals") {
      total = series.value;
    } else if (series.name == "metro.served_local" ||
               series.name == "metro.rerouted" ||
               series.name == "metro.rejected") {
      family_sum += series.value;
    }
  }
  EXPECT_EQ(total, report.arrivals);
  EXPECT_EQ(family_sum, report.arrivals);
  // Spans: one region_session per arrival (plus reroute children), capped
  // by the ring.
  EXPECT_GE(sink.spans.recorded(), report.arrivals);
}

TEST(FederationTest, DarkRegionRaisesReroutesAndRejections) {
  const auto topo = four_regions();
  auto config = small_config();
  const auto baseline = simulate_federation(topo, config);
  config.fault_plans.assign(4, {});
  config.fault_plans[0] = fault::Plan(
      {fault::Episode{fault::EpisodeKind::kChannelOutage, 0.0,
                      config.horizon.v, -1, {}}},
      1);
  const auto dark = simulate_federation(topo, config);
  EXPECT_EQ(dark.arrivals, baseline.arrivals);  // same seeded workload
  EXPECT_GT(dark.rerouted, baseline.rerouted);
  EXPECT_GT(dark.rejected, baseline.rejected);
  EXPECT_GT(dark.mean_penalized_wait_min(),
            baseline.mean_penalized_wait_min());
}

TEST(FederationTest, MoreReplicationNeverIncreasesTailRejections) {
  // With generous budgets, raising the replication degree moves demand
  // from contended tail slots onto broadcast channels: penalized wait
  // must not get worse.
  const auto topo = four_regions(240);
  auto config = small_config();
  config.replicate_top = 2;
  const auto low = simulate_federation(topo, config);
  config.replicate_top = 12;
  const auto high = simulate_federation(topo, config);
  EXPECT_LE(high.mean_penalized_wait_min(), low.mean_penalized_wait_min());
}

TEST(FederationTest, ValidatesConfig) {
  const auto topo = four_regions();
  auto config = small_config();
  config.fault_plans.resize(2);  // wrong count
  EXPECT_THROW((void)simulate_federation(topo, config),
               std::invalid_argument);
  config = small_config();
  config.horizon = core::Minutes{0.0};
  EXPECT_THROW((void)simulate_federation(topo, config),
               std::invalid_argument);
  config = small_config();
  config.sb_channels_per_title = 0;
  EXPECT_THROW((void)simulate_federation(topo, config),
               std::invalid_argument);
  EXPECT_THROW(PlacementSolver(0, 0.271), std::invalid_argument);
  EXPECT_THROW(PlacementSolver(10, 1.5), std::invalid_argument);
}

TEST(FederationTest, RejectsNegativeDurations) {
  const auto topo = four_regions();
  for (const auto field : {&FederationConfig::patience,
                           &FederationConfig::spill_wait,
                           &FederationConfig::reject_penalty}) {
    for (const double bad :
         {-30.0, std::numeric_limits<double>::infinity(),
          std::numeric_limits<double>::quiet_NaN()}) {
      auto config = small_config();
      config.*field = core::Minutes{bad};
      EXPECT_THROW((void)simulate_federation(topo, config),
                   std::invalid_argument)
          << bad;
    }
  }
}

TEST(FederationTest, SampleCapKeepsMomentsExact) {
  const auto topo = four_regions();
  auto config = small_config();
  const auto exact = simulate_federation(topo, config);
  config.stats_sample_cap = 256;
  const auto capped = simulate_federation(topo, config);
  EXPECT_TRUE(capped.wait_minutes.folded());
  EXPECT_EQ(capped.wait_minutes.count(), exact.wait_minutes.count());
  EXPECT_DOUBLE_EQ(capped.wait_minutes.mean(), exact.wait_minutes.mean());
  EXPECT_DOUBLE_EQ(capped.wait_minutes.max(), exact.wait_minutes.max());
}

TEST(FederationTest, ReplicatedRunsMergeInRepOrder) {
  const auto topo = four_regions();
  const auto config = small_config();
  const auto once = simulate_federation_replicated(topo, config, 1);
  const auto thrice = simulate_federation_replicated(topo, config, 3);
  EXPECT_EQ(once.replications, 1U);
  EXPECT_EQ(thrice.replications, 3U);
  EXPECT_GT(thrice.merged.arrivals, once.merged.arrivals);
  EXPECT_EQ(thrice.merged.served_local + thrice.merged.rerouted +
                thrice.merged.rejected,
            thrice.merged.arrivals);
  EXPECT_EQ(thrice.replication_means.count(), 3U);
  EXPECT_GE(thrice.mean_ci95, 0.0);
  EXPECT_THROW((void)simulate_federation_replicated(topo, config, 0),
               std::invalid_argument);
}

}  // namespace
}  // namespace vodbcast::metro
