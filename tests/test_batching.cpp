#include <gtest/gtest.h>

#include <utility>

#include "batching/queue_policies.hpp"
#include "batching/scheduled_multicast.hpp"
#include "util/contracts.hpp"
#include "workload/zipf.hpp"

namespace vodbcast::batching {
namespace {

PendingRequest at(double t) {
  return PendingRequest{.arrival = core::Minutes{t}};
}

TEST(FcfsPolicyTest, PicksOldestHead) {
  WaitQueues queues(3);
  queues[0] = {at(5.0)};
  queues[1] = {at(2.0), at(3.0)};
  queues[2] = {at(4.0)};
  EXPECT_EQ(FcfsPolicy().pick(queues), 1U);
}

TEST(FcfsPolicyTest, EmptyQueuesGiveNothing) {
  WaitQueues queues(4);
  EXPECT_FALSE(FcfsPolicy().pick(queues).has_value());
}

TEST(MqlPolicyTest, PicksLongestQueue) {
  WaitQueues queues(3);
  queues[0] = {at(1.0)};
  queues[1] = {at(5.0), at(6.0), at(7.0)};
  queues[2] = {at(0.5), at(2.0)};
  EXPECT_EQ(MqlPolicy().pick(queues), 1U);
}

TEST(MqlPolicyTest, BreaksTiesByOldestHead) {
  WaitQueues queues(2);
  queues[0] = {at(4.0), at(5.0)};
  queues[1] = {at(1.0), at(9.0)};
  EXPECT_EQ(MqlPolicy().pick(queues), 1U);
}

workload::RequestFeed uniform_requests(
    double rate, double horizon, std::size_t num_videos, std::uint64_t seed,
    workload::RequestFeed::Filter filter = {}) {
  std::vector<double> popularity(num_videos,
                                 1.0 / static_cast<double>(num_videos));
  return workload::RequestFeed(
      workload::RequestGenerator(popularity, rate, util::Rng(seed)),
      core::Minutes{horizon}, std::move(filter));
}

TEST(ScheduledMulticastTest, RejectsNonPositiveHorizons) {
  for (const double horizon : {-1.0, 0.0}) {
    auto requests = uniform_requests(0.2, 50.0, 4, 3);
    MulticastConfig config;
    config.horizon = core::Minutes{horizon};
    EXPECT_THROW(
        (void)simulate_scheduled_multicast(MqlPolicy(), requests, 4, config),
        util::ContractViolation)
        << horizon;
  }
}

TEST(ScheduledMulticastTest, AllServedWhenCapacityIsAmple) {
  // Little's law: ~0.2/min x 120 min = 24 concurrent streams on average;
  // 60 channels make an idle channel at every arrival all but certain.
  std::uint64_t pulled = 0;
  auto requests =
      uniform_requests(0.2, 500.0, 4, 3, [&pulled](workload::Request&) {
        ++pulled;
        return true;
      });
  MulticastConfig config;
  config.channels = 60;
  config.horizon = core::Minutes{500.0 + 120.0};
  const auto report =
      simulate_scheduled_multicast(MqlPolicy(), requests, 4, config);
  EXPECT_GT(pulled, 0U);
  EXPECT_EQ(report.served, pulled);
  EXPECT_EQ(report.reneged, 0U);
  // With a free channel on every arrival, nobody waits.
  EXPECT_DOUBLE_EQ(report.wait_minutes.max(), 0.0);
}

TEST(ScheduledMulticastTest, ExactWaitStoreIsReservedFromTheFeed) {
  // At most one wait per arrival: the store takes the feed's count bound up
  // front, so the exact run never regrew it.
  auto requests = uniform_requests(5.0, 1000.0, 4, 7);
  const std::size_t bound = requests.count_bound();
  MulticastConfig config;
  config.channels = 6;
  config.horizon = core::Minutes{1200.0};
  const auto report =
      simulate_scheduled_multicast(MqlPolicy(), requests, 4, config);
  ASSERT_LE(report.served, bound);
  EXPECT_EQ(report.wait_minutes.samples().capacity(), bound);
}

TEST(ScheduledMulticastTest, BatchingSharesStreams) {
  auto requests = uniform_requests(5.0, 1000.0, 4, 7);
  MulticastConfig config;
  config.channels = 6;
  config.horizon = core::Minutes{1200.0};
  const auto report =
      simulate_scheduled_multicast(MqlPolicy(), requests, 4, config);
  EXPECT_GT(report.served, 0U);
  // Under overload each stream must carry multiple subscribers.
  EXPECT_GT(report.batch_size.mean(), 2.0);
  EXPECT_LT(report.streams_started, report.served);
}

TEST(ScheduledMulticastTest, MqlBeatsFcfsOnThroughputWithReneging) {
  // MQL maximizes server throughput (the result the paper cites from Dan et
  // al.): with impatient subscribers and skewed demand, MQL spends each
  // freed channel on the longest queue before its members renege, while
  // FCFS spends streams on near-empty cold queues.
  // Both policies see the same stream: one seed, two feeds.
  const auto requests = [] {
    return workload::RequestFeed(
        workload::RequestGenerator(workload::zipf_probabilities(20), 6.0,
                                   util::Rng(11)),
        core::Minutes{1500.0});
  };
  MulticastConfig config;
  config.channels = 10;
  config.horizon = core::Minutes{1800.0};
  config.mean_patience = core::Minutes{10.0};
  auto mql_requests = requests();
  const auto mql =
      simulate_scheduled_multicast(MqlPolicy(), mql_requests, 20, config);
  auto fcfs_requests = requests();
  const auto fcfs =
      simulate_scheduled_multicast(FcfsPolicy(), fcfs_requests, 20, config);
  EXPECT_GT(mql.served, fcfs.served);
  EXPECT_LT(mql.reneged, fcfs.reneged);
}

TEST(ScheduledMulticastTest, RenegingDropsImpatientClients) {
  auto requests = uniform_requests(6.0, 1000.0, 10, 13);
  MulticastConfig config;
  config.channels = 4;
  config.horizon = core::Minutes{1200.0};
  config.mean_patience = core::Minutes{5.0};
  const auto report =
      simulate_scheduled_multicast(FcfsPolicy(), requests, 10, config);
  EXPECT_GT(report.reneged, 0U);
  // Served waits are bounded by the patience distribution's realized values.
  EXPECT_GT(report.served, 0U);
}

TEST(ScheduledMulticastTest, UtilizationWithinBounds) {
  auto requests = uniform_requests(2.0, 800.0, 5, 17);
  MulticastConfig config;
  config.channels = 10;
  config.horizon = core::Minutes{1000.0};
  const auto report =
      simulate_scheduled_multicast(MqlPolicy(), requests, 5, config);
  EXPECT_GE(report.channel_utilization, 0.0);
  EXPECT_LE(report.channel_utilization, 1.2);  // tail streams may overhang
}

TEST(ScheduledMulticastTest, RejectsBadConfig) {
  MulticastConfig config;
  config.channels = 0;
  auto requests = uniform_requests(0.2, 50.0, 3, 3);
  EXPECT_THROW(
      (void)simulate_scheduled_multicast(MqlPolicy(), requests, 3, config),
      util::ContractViolation);
}

TEST(ScheduledMulticastTest, RejectsOutOfRangeVideoIds) {
  MulticastConfig config;
  auto requests =
      uniform_requests(0.2, 50.0, 3, 3, [](workload::Request& request) {
        request.video = 9;
        return true;
      });
  EXPECT_THROW(
      (void)simulate_scheduled_multicast(MqlPolicy(), requests, 3, config),
      util::ContractViolation);
}

TEST(ScheduledMulticastTest, RejectsArrivalsOutOfTimeOrder) {
  // Mirrored arrival times run backwards; the engine's merge checks the
  // order as each request is pulled.
  MulticastConfig config;
  auto requests =
      uniform_requests(0.2, 50.0, 3, 3, [](workload::Request& request) {
        request.arrival = core::Minutes{50.0 - request.arrival.v};
        return true;
      });
  EXPECT_THROW(
      (void)simulate_scheduled_multicast(MqlPolicy(), requests, 3, config),
      util::ContractViolation);
}

}  // namespace
}  // namespace vodbcast::batching
