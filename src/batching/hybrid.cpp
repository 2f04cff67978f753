#include "batching/hybrid.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "obs/log.hpp"
#include "util/contracts.hpp"
#include "util/math.hpp"
#include "workload/request.hpp"
#include "workload/zipf.hpp"

namespace vodbcast::batching {

HybridReport evaluate_hybrid(const BatchingPolicy& policy,
                             const HybridConfig& config) {
  VB_EXPECTS(config.hot_titles >= 1);
  VB_EXPECTS(config.broadcast_channels_per_video >= 1);
  VB_EXPECTS(config.horizon.v > 0.0);
  // Caller-facing input validation (not programming-error contracts): these
  // bounds depend on runtime configuration, so violations throw
  // std::invalid_argument carrying the violated bound.
  if (config.hot_titles > config.catalog_size) {
    throw std::invalid_argument(
        "evaluate_hybrid: hot_titles (" + std::to_string(config.hot_titles) +
        ") exceeds catalog_size (" + std::to_string(config.catalog_size) +
        "); the hot set must be a subset of the catalog");
  }

  const double b = config.video.display_rate.v;
  const double broadcast_bw = b * config.broadcast_channels_per_video *
                              static_cast<double>(config.hot_titles);
  const double remaining_bw = config.total_bandwidth.v - broadcast_bw;
  const int multicast_channels =
      static_cast<int>(util::robust_floor(remaining_bw / b));
  if (multicast_channels < 1) {
    throw std::invalid_argument(
        "evaluate_hybrid: broadcast side needs " +
        std::to_string(broadcast_bw) + " Mb/s of the " +
        std::to_string(config.total_bandwidth.v) +
        " Mb/s budget, leaving no whole " + std::to_string(b) +
        " Mb/s channel for the scheduled-multicast tail (>= 1 required)");
  }

  // Broadcast side: SB over the hot titles with K channels each.
  const schemes::SkyscraperScheme sb(config.sb_width);
  const schemes::DesignInput sb_input{
      .server_bandwidth = core::MbitPerSec{broadcast_bw},
      .num_videos = static_cast<int>(config.hot_titles),
      .video = config.video,
  };
  const auto evaluation = sb.evaluate(sb_input);
  VB_EXPECTS(evaluation.has_value());

  // One Zipf stream, split as it is pulled: hot requests are only counted
  // (broadcast absorbs them); cold ones get ids in the tail's catalog.
  const auto popularity = workload::zipf_probabilities(config.catalog_size);
  std::uint64_t hot_count = 0;
  std::uint64_t cold_count = 0;
  workload::RequestFeed requests(
      workload::RequestGenerator(popularity, config.arrivals_per_minute,
                                 util::Rng(config.seed)),
      config.horizon, [&](workload::Request& r) {
        if (r.video < config.hot_titles) {
          ++hot_count;
          return false;
        }
        r.video -= static_cast<core::VideoId>(config.hot_titles);
        ++cold_count;
        return true;
      });

  obs::logf(obs::LogLevel::kDebug,
            "hybrid: %zu hot titles at %.1f Mb/s broadcast, %d tail channels",
            config.hot_titles, broadcast_bw, multicast_channels);

  const MulticastConfig mc{
      .channels = multicast_channels,
      .video_length = config.video.duration,
      .horizon = config.horizon,
      .mean_patience = config.mean_patience,
      .seed = config.seed + 1,
      .stats_sample_cap = config.stats_sample_cap,
      .sink = config.sink,
      .sampler = config.sampler,
  };
  HybridReport report;
  if (config.catalog_size > config.hot_titles) {
    report.multicast = simulate_scheduled_multicast(
        policy, requests, config.catalog_size - config.hot_titles, mc);
  } else {
    // The whole catalog is broadcast and the tail channel idles; the
    // filter dropped every request while the feed was built.
    report.multicast.policy = policy.name();
  }
  // Both counts are final: every draw before the horizon has been pulled.
  if (config.sink != nullptr) {
    config.sink->metrics.gauge("hybrid.broadcast_bandwidth_mbps")
        .set(broadcast_bw);
    config.sink->metrics.gauge("hybrid.multicast_channels")
        .set(static_cast<double>(multicast_channels));
    config.sink->metrics.counter("hybrid.hot_requests").add(hot_count);
    config.sink->metrics.counter("hybrid.cold_requests").add(cold_count);
  }

  report.hot_titles = config.hot_titles;
  double mass = 0.0;
  for (std::size_t i = 0; i < config.hot_titles; ++i) {
    mass += popularity[i];
  }
  report.hot_demand_fraction = mass;
  report.broadcast_worst_latency = evaluation->metrics.access_latency;
  report.broadcast_bandwidth = core::MbitPerSec{broadcast_bw};
  report.multicast_channels = multicast_channels;

  // Hot requests wait uniformly within the broadcast period -> half the
  // worst latency on average; cold requests use the simulated mean.
  const double hot_mean = evaluation->metrics.access_latency.v / 2.0;
  const double cold_mean = report.multicast.wait_minutes.empty()
                               ? 0.0
                               : report.multicast.wait_minutes.mean();
  const double total_requests =
      static_cast<double>(hot_count + report.multicast.served);
  report.combined_mean_wait_minutes =
      total_requests == 0.0
          ? 0.0
          : (hot_mean * static_cast<double>(hot_count) +
             cold_mean * static_cast<double>(report.multicast.served)) /
                total_requests;
  return report;
}

sim::Replicated<HybridReport> evaluate_hybrid_replicated(
    const BatchingPolicy& policy, const HybridConfig& config,
    std::size_t reps, util::TaskPool* pool) {
  auto replicated = sim::replicate<HybridReport>(
      config.seed, reps, pool, config.sink, sim::PoolUse::kAcrossReplications,
      [&](std::uint64_t seed, obs::Sink* sink, util::TaskPool*) {
        HybridConfig rep_config = config;
        rep_config.seed = seed;
        rep_config.sampler = nullptr;
        rep_config.sink = sink;
        return evaluate_hybrid(policy, rep_config);
      },
      [](HybridReport& into, const HybridReport& rep, std::size_t r) {
        if (r == 0) {
          into = rep;
          return;
        }
        auto& tail = into.multicast;
        tail.wait_minutes.merge(rep.multicast.wait_minutes);
        tail.batch_size.merge(rep.multicast.batch_size);
        tail.served += rep.multicast.served;
        tail.reneged += rep.multicast.reneged;
        tail.streams_started += rep.multicast.streams_started;
        tail.channel_utilization += rep.multicast.channel_utilization;
      },
      &HybridReport::combined_mean_wait_minutes);
  auto& merged = replicated.merged;
  merged.multicast.channel_utilization /= static_cast<double>(reps);
  merged.combined_mean_wait_minutes = replicated.replication_means.mean();
  return replicated;
}

}  // namespace vodbcast::batching
