#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include "fault/injector.hpp"
#include "obs/sink.hpp"
#include "schemes/pyramid.hpp"
#include "schemes/skyscraper.hpp"
#include "schemes/staggered.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"
#include "workload/request.hpp"

namespace vodbcast::sim {
namespace {

schemes::DesignInput paper_input(double bandwidth) {
  return schemes::DesignInput{
      .server_bandwidth = core::MbitPerSec{bandwidth},
      .num_videos = 10,
      .video = core::VideoParams{core::Minutes{120.0}, core::MbitPerSec{1.5}},
  };
}

TEST(SimulatorTest, EmpiricalLatencyBoundedByClosedForm) {
  const schemes::SkyscraperScheme sb(52);
  const auto input = paper_input(300.0);
  const auto metrics = sb.evaluate(input)->metrics;

  SimulationConfig config;
  config.horizon = core::Minutes{300.0};
  config.arrivals_per_minute = 5.0;
  const auto report = simulate(sb, input, config);

  EXPECT_GT(report.clients_served, 1000U);
  EXPECT_LE(report.latency_minutes.max(),
            metrics.access_latency.v + 1e-9);
  // Uniform arrivals within a period average to about half the worst wait.
  EXPECT_NEAR(report.latency_minutes.mean(), metrics.access_latency.v / 2.0,
              metrics.access_latency.v * 0.1);
}

TEST(SimulatorTest, SkyscraperClientsAreJitterFreeWithBoundedBuffers) {
  const schemes::SkyscraperScheme sb(12);
  const auto input = paper_input(150.0);
  const auto metrics = sb.evaluate(input)->metrics;

  SimulationConfig config;
  config.horizon = core::Minutes{200.0};
  config.arrivals_per_minute = 3.0;
  config.plan_clients = true;
  const auto report = simulate(sb, input, config);

  EXPECT_EQ(report.jitter_events, 0U);
  EXPECT_LE(report.max_concurrent_downloads, 2);
  ASSERT_FALSE(report.buffer_peak_mbits.empty());
  EXPECT_LE(report.buffer_peak_mbits.max(), metrics.client_buffer.v + 1e-6);
}

TEST(SimulatorTest, ExactStoresAreReservedFromTheArrivalFeed) {
  // One wait and one buffer peak per arrival: both stores are sized to the
  // feed's count bound (a function of the rate and the horizon) up front,
  // so the exact run never regrew them.
  const schemes::SkyscraperScheme sb(12);
  const auto input = paper_input(150.0);
  SimulationConfig config;
  config.horizon = core::Minutes{200.0};
  config.arrivals_per_minute = 3.0;
  config.plan_clients = true;
  const auto report = simulate(sb, input, config);
  const std::size_t bound =
      workload::RequestFeed(
          workload::RequestGenerator({1.0}, config.arrivals_per_minute,
                                     util::Rng(0)),
          config.horizon)
          .count_bound();
  ASSERT_LE(report.clients_served, bound);
  EXPECT_EQ(report.latency_minutes.samples().capacity(), bound);
  EXPECT_EQ(report.buffer_peak_mbits.samples().capacity(), bound);
}

TEST(SimulatorTest, SimulatedBufferPeakReachesTheBound) {
  // The closed-form bound must be tight: some client phase attains it.
  const schemes::SkyscraperScheme sb(5);
  const auto input = paper_input(150.0);
  const auto metrics = sb.evaluate(input)->metrics;

  SimulationConfig config;
  config.horizon = core::Minutes{400.0};
  config.arrivals_per_minute = 5.0;
  config.plan_clients = true;
  const auto report = simulate(sb, input, config);
  EXPECT_NEAR(report.buffer_peak_mbits.max(), metrics.client_buffer.v,
              metrics.client_buffer.v * 0.05);
}

TEST(SimulatorTest, PyramidLatencyFarBelowStaggered) {
  const auto input = paper_input(300.0);
  SimulationConfig config;
  config.horizon = core::Minutes{300.0};
  config.arrivals_per_minute = 2.0;

  const auto pb = simulate(schemes::PyramidScheme(schemes::Variant::kA),
                           input, config);
  const auto stag = simulate(schemes::StaggeredScheme(), input, config);
  EXPECT_LT(pb.latency_minutes.mean() * 100.0, stag.latency_minutes.mean());
}

TEST(SimulatorTest, ReportsPeakServerRate) {
  const schemes::SkyscraperScheme sb(52);
  const auto input = paper_input(150.0);
  SimulationConfig config;
  config.horizon = core::Minutes{50.0};
  config.arrivals_per_minute = 1.0;
  const auto report = simulate(sb, input, config);
  EXPECT_NEAR(report.peak_server_rate.v, 150.0, 1e-6);
}

TEST(SimulatorTest, RejectsNonPositiveHorizons) {
  const schemes::SkyscraperScheme sb(52);
  const auto input = paper_input(300.0);
  for (const double horizon : {-1.0, 0.0}) {
    SimulationConfig config;
    config.horizon = core::Minutes{horizon};
    EXPECT_THROW((void)simulate(sb, input, config), util::ContractViolation)
        << horizon;
  }
}

TEST(SimulatorTest, InfeasibleSchemeRejected) {
  const schemes::PyramidScheme pb(schemes::Variant::kB);
  const auto input = paper_input(40.0);
  SimulationConfig config;
  EXPECT_THROW((void)simulate(pb, input, config), util::ContractViolation);
}

TEST(SimulatorTest, DeterministicForFixedSeed) {
  const schemes::SkyscraperScheme sb(52);
  const auto input = paper_input(300.0);
  SimulationConfig config;
  config.horizon = core::Minutes{100.0};
  const auto a = simulate(sb, input, config);
  const auto b = simulate(sb, input, config);
  EXPECT_EQ(a.clients_served, b.clients_served);
  EXPECT_DOUBLE_EQ(a.latency_minutes.mean(), b.latency_minutes.mean());
}

// Only a planned SB client walks downloads a fault plan can damage, so a
// plan with episodes anywhere else would run and report no damage at all.
TEST(SimulatorTest, FaultPlanNeedsPlannedSkyscraperClients) {
  const fault::Injector outage{fault::Plan(
      {fault::Episode{.kind = fault::EpisodeKind::kChannelOutage,
                      .start_min = 10.0,
                      .end_min = 40.0,
                      .channel = 1}},
      1)};
  const auto input = paper_input(300.0);
  SimulationConfig config;
  config.horizon = core::Minutes{60.0};
  config.plan_clients = true;
  config.injector = &outage;
  EXPECT_THROW(
      (void)simulate(schemes::PyramidScheme(schemes::Variant::kA), input,
                     config),
      util::ContractViolation);
  EXPECT_THROW((void)simulate(schemes::StaggeredScheme(), input, config),
               util::ContractViolation);
  config.plan_clients = false;
  EXPECT_THROW((void)simulate(schemes::SkyscraperScheme(52), input, config),
               util::ContractViolation);
}

TEST(SimulatorTest, EmptyFaultPlanRunsWithoutPlannedClients) {
  const fault::Injector empty{fault::Plan{}};
  const auto input = paper_input(300.0);
  SimulationConfig config;
  config.horizon = core::Minutes{60.0};
  config.injector = &empty;
  const auto sb = simulate(schemes::SkyscraperScheme(52), input, config);
  EXPECT_GT(sb.clients_served, 0U);
  EXPECT_EQ(sb.fault_hits, 0U);
  config.plan_clients = true;
  const auto pb = simulate(schemes::PyramidScheme(schemes::Variant::kA),
                           input, config);
  EXPECT_GT(pb.clients_served, 0U);
  EXPECT_EQ(pb.fault_hits, 0U);
}

// Memory canary: arrivals are pulled through the engine, never scheduled
// into its heap, so a run's slab stays empty however many clients arrive
// — while the sink still counts every arrival as scheduled and fired.
TEST(SimulatorTest, ArrivalsTakeNoEventSlabSlots) {
  const schemes::SkyscraperScheme sb(52);
  const auto input = paper_input(300.0);
  obs::Sink sink;
  SimulationConfig config;
  config.horizon = core::Minutes{300.0};
  config.arrivals_per_minute = 5.0;
  config.plan_clients = true;
  config.sink = &sink;
  const auto report = simulate(sb, input, config);
  ASSERT_GT(report.clients_served, 1000U);
  EXPECT_EQ(sink.metrics.gauge("sim.event_queue.slab_slots").value(), 0.0);
  EXPECT_EQ(sink.metrics.gauge("sim.event_queue.pending_peak").value(), 0.0);
  EXPECT_EQ(sink.metrics.counter("sim.event_queue.scheduled").value(),
            report.clients_served);
  EXPECT_EQ(sink.metrics.counter("sim.event_queue.fired").value(),
            report.clients_served);
}

}  // namespace
}  // namespace vodbcast::sim
