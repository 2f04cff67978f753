#include "batching/hybrid.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>

#include "util/contracts.hpp"

namespace vodbcast::batching {
namespace {

HybridConfig base_config() {
  HybridConfig config;
  config.total_bandwidth = core::MbitPerSec{600.0};
  config.catalog_size = 100;
  config.hot_titles = 10;
  config.broadcast_channels_per_video = 10;
  config.sb_width = 52;
  config.video =
      core::VideoParams{core::Minutes{120.0}, core::MbitPerSec{1.5}};
  config.arrivals_per_minute = 3.0;
  config.horizon = core::Minutes{1000.0};
  return config;
}

TEST(HybridTest, HotTitlesAbsorbMostDemand) {
  const auto report = evaluate_hybrid(MqlPolicy(), base_config());
  // Zipf(0.271) over 100 titles: the top 10 carry well over half the load.
  EXPECT_GT(report.hot_demand_fraction, 0.5);
  EXPECT_EQ(report.hot_titles, 10U);
}

TEST(HybridTest, BroadcastSideGetsGuaranteedLatency) {
  const auto report = evaluate_hybrid(MqlPolicy(), base_config());
  // 10 channels/video -> K = 10, sum(min(f, 52)) = 141 units over 120 min.
  EXPECT_NEAR(report.broadcast_worst_latency.v, 120.0 / 141.0, 1e-9);
  EXPECT_DOUBLE_EQ(report.broadcast_bandwidth.v, 150.0);
}

TEST(HybridTest, TailChannelsComputedFromLeftoverBandwidth) {
  const auto report = evaluate_hybrid(MqlPolicy(), base_config());
  // 600 - 150 = 450 Mb/s -> 300 channels of 1.5 Mb/s.
  EXPECT_EQ(report.multicast_channels, 300);
}

TEST(HybridTest, CombinedWaitBlendsBothSides) {
  const auto report = evaluate_hybrid(MqlPolicy(), base_config());
  EXPECT_GT(report.combined_mean_wait_minutes, 0.0);
  // Hot requests wait well under a minute; the blended mean must sit between
  // the hot mean and the cold mean.
  const double hot_mean = report.broadcast_worst_latency.v / 2.0;
  const double cold_mean = report.multicast.wait_minutes.empty()
                               ? 0.0
                               : report.multicast.wait_minutes.mean();
  EXPECT_GE(report.combined_mean_wait_minutes,
            std::min(hot_mean, cold_mean) - 1e-12);
  EXPECT_LE(report.combined_mean_wait_minutes,
            std::max(hot_mean, cold_mean) + 1e-12);
}

TEST(HybridTest, MoreBroadcastChannelsCutHotLatency) {
  auto narrow = base_config();
  narrow.broadcast_channels_per_video = 5;
  auto wide = base_config();
  wide.broadcast_channels_per_video = 15;
  const auto a = evaluate_hybrid(MqlPolicy(), narrow);
  const auto b = evaluate_hybrid(MqlPolicy(), wide);
  EXPECT_LT(b.broadcast_worst_latency.v, a.broadcast_worst_latency.v);
}

TEST(HybridTest, RejectsOversubscribedBroadcastSide) {
  auto config = base_config();
  config.broadcast_channels_per_video = 40;  // 600 Mb/s all for broadcast
  // Invalid runtime configuration, not a programming error: the exception
  // is std::invalid_argument and names the violated bound.
  try {
    (void)evaluate_hybrid(MqlPolicy(), config);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("tail"), std::string::npos) << what;
    EXPECT_NE(what.find(">= 1"), std::string::npos) << what;
  }
}

TEST(HybridTest, RejectsMoreHotTitlesThanCatalog) {
  auto config = base_config();
  config.hot_titles = 200;
  try {
    (void)evaluate_hybrid(MqlPolicy(), config);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("hot_titles (200)"), std::string::npos) << what;
    EXPECT_NE(what.find("catalog_size (100)"), std::string::npos) << what;
  }
}

TEST(HybridTest, RejectsNonPositiveHorizons) {
  for (const double horizon : {-1.0, 0.0}) {
    auto config = base_config();
    config.horizon = core::Minutes{horizon};
    EXPECT_THROW((void)evaluate_hybrid(MqlPolicy(), config),
                 util::ContractViolation)
        << horizon;
  }
}

TEST(HybridTest, HotSetEqualToCatalogIsStillValid) {
  auto config = base_config();
  // Boundary: hot_titles == catalog_size passes validation (the tail then
  // serves nothing, but one multicast channel must still exist).
  config.catalog_size = 10;
  config.hot_titles = 10;
  const auto report = evaluate_hybrid(MqlPolicy(), config);
  EXPECT_EQ(report.hot_titles, 10u);
  // The idle tail still names its policy (the CLI prints it).
  EXPECT_EQ(report.multicast.policy, "MQL");
  EXPECT_EQ(report.multicast.served, 0U);
  // Every request was counted hot: with no cold waits the combined mean is
  // the hot side's, half the guaranteed worst wait (0 had none counted).
  EXPECT_DOUBLE_EQ(report.combined_mean_wait_minutes,
                   report.broadcast_worst_latency.v / 2.0);
  EXPECT_GT(report.combined_mean_wait_minutes, 0.0);
}

}  // namespace
}  // namespace vodbcast::batching
