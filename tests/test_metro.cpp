#include "metro/federation.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "metro/placement.hpp"
#include "metro/router.hpp"
#include "metro/topology.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "obs/span.hpp"
#include "schemes/skyscraper.hpp"
#include "util/rng.hpp"
#include "util/task_pool.hpp"
#include "workload/request.hpp"
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

// Arrivals the router cannot affect (uncontended(): a replicated title at a
// lit origin) leave its link and slot state alone, so routing only the
// others yields the same decisions for them. A tight topology with one
// region dark for a stretch makes the others contend for links and slots.
TEST(RouterTest, UncontendedArrivalsChangeNoLaterDecision) {
  const Topology topo({{60.0, 24}, {45.0, 24}, {30.0, 24}, {15.0, 24}}, 4,
                      core::Minutes{0.5});
  const PlacementSolver solver(30, workload::kPaperSkew);
  const auto placement = solver.solve(topo, 6);
  std::vector<fault::Plan> plans(4);
  plans[2] = fault::Plan(
      {fault::Episode{fault::EpisodeKind::kChannelOutage, 40.0, 90.0, -1, {}}},
      1);
  RouterConfig rc;
  rc.video = core::VideoParams{core::Minutes{15.0}, core::MbitPerSec{1.5}};
  rc.fault_plans = &plans;
  Router every(topo, placement, {20, 20, 20, 20}, rc);
  Router contended_only(topo, placement, {20, 20, 20, 20}, rc);

  util::Rng rng(5);
  double t = 0.0;
  std::size_t skipped = 0;
  std::size_t dark_head = 0;
  std::array<std::size_t, 3> routed{};  // by RouteKind
  while (t < 150.0) {
    t += rng.next_exponential(12.0);
    const Arrival a{core::Minutes{t}, static_cast<core::VideoId>(
                                          rng.next_below(30)),
                    static_cast<std::uint32_t>(rng.next_below(4))};
    const RouteDecision all = every.route(a);
    if (uncontended(placement, &plans, a)) {
      ++skipped;
      const RouteDecision local = local_broadcast(a);
      EXPECT_EQ(all.kind, RouteKind::kLocal);
      EXPECT_EQ(all.served_by, local.served_by);
      EXPECT_TRUE(all.broadcast);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(all.arrival_min),
                std::bit_cast<std::uint64_t>(local.arrival_min));
      EXPECT_EQ(all.transit_min, 0.0);
      EXPECT_EQ(all.link_mbits, 0.0);
      continue;
    }
    ++routed[static_cast<std::size_t>(all.kind)];
    dark_head += placement.is_replicated(a.video) ? 1 : 0;
    const RouteDecision some = contended_only.route(a);
    ASSERT_EQ(all.kind, some.kind) << "at " << t;
    EXPECT_EQ(all.served_by, some.served_by);
    EXPECT_EQ(all.broadcast, some.broadcast);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(all.queue_wait_min),
              std::bit_cast<std::uint64_t>(some.queue_wait_min));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(all.transit_min),
              std::bit_cast<std::uint64_t>(some.transit_min));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(all.link_mbits),
              std::bit_cast<std::uint64_t>(some.link_mbits));
  }
  // Every kind of verdict occurs, failovers from the dark region included.
  EXPECT_GT(skipped, 0U);
  EXPECT_GT(dark_head, 0U);
  for (const std::size_t count : routed) {
    EXPECT_GT(count, 0U);
  }
}

TEST(RouterTest, UncontendedIsALitOriginReplicatedTitle) {
  const auto topo = four_regions();
  const PlacementSolver solver(40, workload::kPaperSkew);
  const auto placement = solver.solve(topo, 5);
  std::vector<fault::Plan> plans(4);
  plans[1] = fault::Plan(
      {fault::Episode{fault::EpisodeKind::kChannelOutage, 10.0, 20.0, -1, {}}},
      1);
  const std::vector<fault::Plan> none;
  for (const auto* p : {static_cast<const std::vector<fault::Plan>*>(nullptr),
                        &none}) {
    EXPECT_TRUE(uncontended(placement, p, {core::Minutes{15.0}, 0, 1}));
    EXPECT_FALSE(uncontended(placement, p, {core::Minutes{15.0}, 20, 1}));
  }
  EXPECT_FALSE(uncontended(placement, &plans, {core::Minutes{15.0}, 0, 1}));
  EXPECT_TRUE(uncontended(placement, &plans, {core::Minutes{20.0}, 0, 1}));
  EXPECT_TRUE(uncontended(placement, &plans, {core::Minutes{15.0}, 0, 2}));
  EXPECT_FALSE(uncontended(placement, &plans, {core::Minutes{5.0}, 20, 0}));
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

TEST(FederationTest, ExactWaitStoresAreReservedFromTheFeeds) {
  // One wait per arrival: each region's store is sized to its feed's count
  // bound (a function of its rate and the horizon) and the metro-wide one
  // to the regions' summed count, so the exact run never regrew either.
  const auto topo = four_regions();
  const auto config = small_config();
  const auto report = simulate_federation(topo, config);
  ASSERT_EQ(report.regions.size(), topo.size());
  for (std::size_t g = 0; g < topo.size(); ++g) {
    const std::size_t bound =
        workload::RequestFeed(
            workload::RequestGenerator(
                {1.0}, topo.region(g).arrivals_per_minute, util::Rng(0)),
            config.horizon)
            .count_bound();
    const auto& waits = report.regions[g].wait_minutes;
    ASSERT_LE(waits.count(), bound) << g;
    EXPECT_EQ(waits.samples().capacity(), bound) << g;
  }
  EXPECT_EQ(report.wait_minutes.samples().capacity(), report.arrivals);
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

// ---------------------------------------------------------------------------
// The federation against a reference that routes every arrival: the
// algorithm before the router bypass, and the one metrobench's traced
// replay runs. Whole-horizon per-region streams, their k-way time-ordered
// merge (ties to the lower region) through Router::route, then each region's
// decisions accounted in arrival order into its own report and sink shard,
// folded in region order. Tune waits use std::fmod.

struct ReferenceLedger {
  RegionReport report;
  std::unique_ptr<obs::Sink> sink;
  obs::Counter* arrivals_total = nullptr;
  obs::Counter* region_arrivals = nullptr;
  obs::Counter* served_local = nullptr;
  obs::Counter* rerouted = nullptr;
  obs::Counter* rejected = nullptr;
  obs::Counter* link_bytes = nullptr;
  std::uint64_t ordinal = 0;

  ReferenceLedger(std::size_t g, const FederationConfig& config) {
    report.wait_minutes.set_sample_cap(config.stats_sample_cap);
    if (config.sink == nullptr) {
      return;
    }
    sink = config.sink->make_shard();
    auto& reg = sink->metrics;
    const std::string label = std::to_string(g);
    arrivals_total = &reg.counter("metro.arrivals");
    region_arrivals =
        &reg.counter_family("metro.region_arrivals", {"region"}).with({label});
    served_local =
        &reg.counter_family("metro.served_local", {"region"}).with({label});
    rerouted = &reg.counter_family("metro.rerouted", {"region"}).with({label});
    rejected = &reg.counter_family("metro.rejected", {"region"}).with({label});
    link_bytes =
        &reg.counter_family("metro.link_bytes", {"region"}).with({label});
  }
};

double reference_tune_wait(double t, double d1) {
  const double into = std::fmod(t, d1);
  return into == 0.0 ? 0.0 : d1 - into;
}

void reference_account(ReferenceLedger& ledger, const RouteDecision& d,
                       const FederationConfig& config, double d1) {
  ++ledger.ordinal;
  auto& report = ledger.report;
  double wait = config.reject_penalty.v;
  if (d.kind == RouteKind::kRejected) {
    ++report.rejected;
  } else {
    wait = d.transit_min +
           (d.broadcast ? reference_tune_wait(d.arrival_min + d.transit_min,
                                              d1)
                        : d.queue_wait_min);
    ++(d.kind == RouteKind::kLocal ? report.served_local
                                   : report.rerouted_out);
  }
  ++report.arrivals;
  report.link_mbits += d.link_mbits;
  report.wait_minutes.add(wait);
  if (ledger.sink == nullptr) {
    return;
  }
  ledger.arrivals_total->add();
  ledger.region_arrivals->add();
  (d.kind == RouteKind::kLocal      ? ledger.served_local
   : d.kind == RouteKind::kRerouted ? ledger.rerouted
                                    : ledger.rejected)
      ->add();
  if (d.link_mbits > 0.0) {
    ledger.link_bytes->add(
        static_cast<std::uint64_t>(std::llround(d.link_mbits * 125000.0)));
  }
  obs::Span session;
  session.start_min = d.arrival_min;
  session.end_min = d.kind == RouteKind::kRejected
                        ? d.arrival_min
                        : d.arrival_min + wait + config.video.duration.v;
  session.phase = obs::SpanPhase::kRegionSession;
  session.channel = static_cast<std::int32_t>(d.served_by);
  session.video = d.video;
  session.client = ledger.ordinal;
  session.value = wait;
  const auto id = ledger.sink->spans.record(session);
  if (d.kind == RouteKind::kRerouted) {
    obs::Span hop;
    hop.parent = id;
    hop.start_min = d.arrival_min;
    hop.end_min = d.arrival_min + d.transit_min;
    hop.phase = obs::SpanPhase::kReroute;
    hop.channel = static_cast<std::int32_t>(d.served_by);
    hop.video = d.video;
    hop.client = ledger.ordinal;
    hop.value = d.transit_min;
    ledger.sink->spans.record(hop);
  }
}

FederationReport route_every_arrival(const Topology& topology,
                                     const FederationConfig& config) {
  const std::size_t n = topology.size();
  double d1 = 0.0;
  if (config.replicate_top > 0) {
    const schemes::SkyscraperScheme sb(config.sb_width);
    d1 = sb.evaluate(schemes::DesignInput{
                         core::MbitPerSec{config.video.display_rate.v *
                                          config.sb_channels_per_title},
                         1, config.video})
             ->metrics.access_latency.v;
  }
  const PlacementSolver solver(config.catalog_size, config.zipf_theta);
  const Placement placement = solver.solve(topology, config.replicate_top);
  const int head_channels =
      static_cast<int>(placement.replicated) * config.sb_channels_per_title;
  std::vector<int> tail_slots(n);
  int tail_slots_total = 0;
  for (std::size_t r = 0; r < n; ++r) {
    tail_slots[r] = std::max(0, topology.region(r).channels - head_channels);
    tail_slots_total += tail_slots[r];
  }
  util::SplitMix64 seeds(config.seed);
  std::vector<std::vector<workload::Request>> streams(n);
  for (std::size_t g = 0; g < n; ++g) {
    workload::RequestFeed feed(
        workload::RequestGenerator(solver.popularity(),
                                   topology.region(g).arrivals_per_minute,
                                   util::Rng(seeds.next())),
        config.horizon);
    while (std::isfinite(feed.next_at())) {
      streams[g].push_back(feed.pop());
    }
  }
  RouterConfig router_config;
  router_config.video = config.video;
  router_config.patience = config.patience;
  router_config.spill_wait = config.spill_wait;
  router_config.fault_plans = &config.fault_plans;
  Router router(topology, placement, tail_slots, router_config);
  std::vector<std::vector<RouteDecision>> per_origin(n);
  std::vector<std::uint64_t> rerouted_in(n, 0);
  std::vector<std::size_t> cursor(n, 0);
  for (;;) {
    std::size_t next = n;
    for (std::size_t g = 0; g < n; ++g) {
      if (cursor[g] < streams[g].size() &&
          (next == n || streams[g][cursor[g]].arrival.v <
                            streams[next][cursor[next]].arrival.v)) {
        next = g;
      }
    }
    if (next == n) {
      break;
    }
    const auto& req = streams[next][cursor[next]++];
    const RouteDecision d = router.route(
        Arrival{req.arrival, req.video, static_cast<std::uint32_t>(next)});
    if (d.kind == RouteKind::kRerouted) {
      ++rerouted_in[d.served_by];
    }
    per_origin[next].push_back(d);
  }
  FederationReport out;
  out.wait_minutes.set_sample_cap(config.stats_sample_cap);
  out.replicated_titles = placement.replicated;
  out.tail_slots_total = tail_slots_total;
  out.broadcast_latency_min = d1;
  for (std::size_t g = 0; g < n; ++g) {
    ReferenceLedger ledger(g, config);
    for (const auto& d : per_origin[g]) {
      reference_account(ledger, d, config, d1);
    }
    ledger.report.rerouted_in = rerouted_in[g];
    const auto& r = out.regions.emplace_back(std::move(ledger.report));
    out.arrivals += r.arrivals;
    out.served_local += r.served_local;
    out.rerouted += r.rerouted_out;
    out.rejected += r.rejected;
    out.link_mbits += r.link_mbits;
    out.wait_minutes.merge(r.wait_minutes);
    if (config.sink != nullptr) {
      obs::publish_drop_metrics(*ledger.sink);
      config.sink->merge_from(*ledger.sink);
    }
  }
  return out;
}

void expect_bits(double actual, double expected, const char* what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(actual),
            std::bit_cast<std::uint64_t>(expected))
      << what << ": " << actual << " vs " << expected;
}

void expect_same(const sim::Distribution& a, const sim::Distribution& b) {
  ASSERT_EQ(a.count(), b.count());
  EXPECT_EQ(a.sample_cap(), b.sample_cap());
  EXPECT_EQ(a.folded(), b.folded());
  EXPECT_EQ(a.samples_folded(), b.samples_folded());
  EXPECT_EQ(a.retained_bytes(), b.retained_bytes());
  ASSERT_EQ(a.samples().size(), b.samples().size());
  const auto differ = std::mismatch(
      a.samples().begin(), a.samples().end(), b.samples().begin(),
      [](double x, double y) {
        return std::bit_cast<std::uint64_t>(x) ==
               std::bit_cast<std::uint64_t>(y);
      });
  EXPECT_TRUE(differ.first == a.samples().end())
      << "first differing sample at " << (differ.first - a.samples().begin());
  if (a.empty()) {
    return;
  }
  expect_bits(a.mean(), b.mean(), "mean");
  expect_bits(a.min(), b.min(), "min");
  expect_bits(a.max(), b.max(), "max");
  expect_bits(a.stddev(), b.stddev(), "stddev");
  for (const double q : {0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    expect_bits(a.quantile(q), b.quantile(q), "quantile");
  }
  if (!a.folded()) {
    const auto ha = a.histogram(32);
    const auto hb = b.histogram(32);
    expect_bits(ha.lo, hb.lo, "histogram lo");
    expect_bits(ha.hi, hb.hi, "histogram hi");
    EXPECT_EQ(ha.counts, hb.counts);
    return;
  }
  const auto& sa = *a.sketch();
  const auto& sb = *b.sketch();
  EXPECT_EQ(sa.buckets(), sb.buckets());
  EXPECT_EQ(sa.zero_count(), sb.zero_count());
  EXPECT_EQ(sa.collapsed(), sb.collapsed());
  expect_bits(sa.sum(), sb.sum(), "sketch sum");
}

void expect_same(const RegionReport& a, const RegionReport& b) {
  EXPECT_EQ(a.arrivals, b.arrivals);
  EXPECT_EQ(a.served_local, b.served_local);
  EXPECT_EQ(a.rerouted_out, b.rerouted_out);
  EXPECT_EQ(a.rerouted_in, b.rerouted_in);
  EXPECT_EQ(a.rejected, b.rejected);
  expect_bits(a.link_mbits, b.link_mbits, "region link_mbits");
  expect_same(a.wait_minutes, b.wait_minutes);
}

void expect_same(const FederationReport& a, const FederationReport& b) {
  EXPECT_EQ(a.arrivals, b.arrivals);
  EXPECT_EQ(a.served_local, b.served_local);
  EXPECT_EQ(a.rerouted, b.rerouted);
  EXPECT_EQ(a.rejected, b.rejected);
  expect_bits(a.link_mbits, b.link_mbits, "link_mbits");
  EXPECT_EQ(a.replicated_titles, b.replicated_titles);
  EXPECT_EQ(a.tail_slots_total, b.tail_slots_total);
  expect_bits(a.broadcast_latency_min, b.broadcast_latency_min, "d1");
  expect_same(a.wait_minutes, b.wait_minutes);
  ASSERT_EQ(a.regions.size(), b.regions.size());
  for (std::size_t g = 0; g < a.regions.size(); ++g) {
    SCOPED_TRACE("region " + std::to_string(g));
    expect_same(a.regions[g], b.regions[g]);
  }
}

bool same_span(const obs::Span& a, const obs::Span& b) {
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  return a.id == b.id && a.parent == b.parent &&
         bits(a.start_min) == bits(b.start_min) &&
         bits(a.end_min) == bits(b.end_min) && a.phase == b.phase &&
         a.channel == b.channel && a.video == b.video &&
         a.client == b.client && bits(a.value) == bits(b.value) &&
         a.label == b.label;
}

void expect_same(const std::vector<obs::Span>& a,
                 const std::vector<obs::Span>& b) {
  ASSERT_EQ(a.size(), b.size());
  const auto differ =
      std::mismatch(a.begin(), a.end(), b.begin(), same_span).first;
  EXPECT_TRUE(differ == a.end())
      << "first differing span at " << (differ - a.begin());
}

// 300 arrivals/min over 150 min: about 45k arrivals in two arrival
// windows of 2^15 (the first ends at 109.2 min), each campaign with a sink
// large enough to export every span. The dark configurations put region 1
// dark across that window boundary, or every region dark over it. Every run
// matches the reference's spans field for field, in export order, and its
// OpenMetrics text; the JSONL text, a pure function of those spans that
// takes most of the test's time to print, is compared once per fault case.
TEST(FederationTest, EqualsRoutingEveryArrival) {
  const auto topo = four_regions(60, 4);
  const auto outage = [](double from, double to) {
    return fault::Plan({fault::Episode{fault::EpisodeKind::kChannelOutage,
                                       from, to, -1, {}}},
                       1);
  };
  std::vector<fault::Plan> one_dark(4);
  one_dark[1] = outage(80.0, 140.0);
  const std::vector<fault::Plan> all_dark(4, outage(100.0, 120.0));
  util::TaskPool pool1(1);
  util::TaskPool pool2(2);
  util::TaskPool pool4(4);
  std::size_t skipped_somewhere = 0;
  for (const auto& [faults, name] :
       {std::pair{std::vector<fault::Plan>{}, "no faults"},
        std::pair{one_dark, "region 1 dark"},
        std::pair{all_dark, "every region dark"}}) {
    for (const std::size_t replicate_top : {0UL, 6UL, 40UL}) {
      SCOPED_TRACE(std::string(name) + ", replicate_top " +
                   std::to_string(replicate_top));
      auto config = small_config();
      config.horizon = core::Minutes{150.0};
      config.replicate_top = replicate_top;
      config.stats_sample_cap = 2048;
      config.fault_plans = faults;
      obs::Sink reference_sink(1, 1U << 18);
      config.sink = &reference_sink;
      const auto reference = route_every_arrival(topo, config);
      ASSERT_GT(reference.arrivals, 32768U);
      ASSERT_EQ(reference_sink.spans.dropped(), 0U);
      const auto reference_spans = reference_sink.spans.spans();
      const auto reference_metrics = reference_sink.metrics.to_openmetrics();
      skipped_somewhere += reference.served_local;
      for (util::TaskPool* pool : {static_cast<util::TaskPool*>(nullptr),
                                   &pool1, &pool2, &pool4}) {
        SCOPED_TRACE(pool == nullptr ? 0U : pool->thread_count());
        obs::Sink sink(1, 1U << 18);
        config.sink = &sink;
        const auto report = simulate_federation(topo, config, pool);
        expect_same(report, reference);
        expect_same(sink.spans.spans(), reference_spans);
        EXPECT_EQ(sink.metrics.to_openmetrics(), reference_metrics);
        if (pool == &pool4 && replicate_top == 6) {
          // Not EXPECT_EQ: a failure would diff two multi-megabyte texts.
          EXPECT_TRUE(sink.spans.to_jsonl() == reference_sink.spans.to_jsonl())
              << "the JSONL span exports differ";
        }
      }
    }
  }
  EXPECT_GT(skipped_somewhere, 0U);
}

}  // namespace
}  // namespace vodbcast::metro
