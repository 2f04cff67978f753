// Hybrid server: periodic broadcast for the hot titles, scheduled multicast
// for the tail (paper Section 1: "a hybrid of the two techniques offered the
// best performance").
//
// Given a catalog with Zipf popularity and a total bandwidth budget, the
// allocator dedicates enough channels to broadcast the hottest `hot_titles`
// videos with an SB scheme and hands the remaining channels to a batching
// policy for the tail. The report combines both sides' latency weighted by
// demand.
#pragma once

#include <memory>
#include <string>

#include "batching/scheduled_multicast.hpp"
#include "core/video.hpp"
#include "schemes/skyscraper.hpp"
#include "sim/replicate.hpp"
#include "util/task_pool.hpp"

namespace vodbcast::batching {

struct HybridConfig {
  core::MbitPerSec total_bandwidth{600.0};
  std::size_t catalog_size = 100;
  std::size_t hot_titles = 10;          ///< broadcast via SB
  int broadcast_channels_per_video = 6; ///< K dedicated to each hot title
  std::uint64_t sb_width = 52;
  core::VideoParams video{};
  double arrivals_per_minute = 10.0;
  core::Minutes horizon{2000.0};  ///< observation window, > 0
  core::Minutes mean_patience{-1.0};
  std::uint64_t seed = 11;
  /// Sample cap for the tail simulation's Distributions (forwarded to
  /// MulticastConfig::stats_sample_cap); 0 retains every sample exactly.
  std::size_t stats_sample_cap = 0;
  /// Optional observability attachment (not owned), forwarded to the tail's
  /// scheduled-multicast simulation; "hybrid.*" gauges record the split.
  obs::Sink* sink = nullptr;
  /// Optional time-series sampler (not owned), forwarded to the tail's
  /// scheduled-multicast simulation.
  obs::Sampler* sampler = nullptr;
};

struct HybridReport {
  std::size_t hot_titles = 0;
  double hot_demand_fraction = 0.0;   ///< popularity mass broadcast
  core::Minutes broadcast_worst_latency{0.0};
  core::MbitPerSec broadcast_bandwidth{0.0};
  int multicast_channels = 0;
  MulticastReport multicast;          ///< tail-side simulation
  /// Demand-weighted mean latency across both sides, approximating the hot
  /// side by half its worst (guaranteed) wait.
  double combined_mean_wait_minutes = 0.0;
};

/// Runs the hybrid allocation end to end.
/// Throws std::invalid_argument (naming the violated bound) when
/// hot_titles > catalog_size or when the broadcast side does not leave at
/// least one whole channel of bandwidth for the scheduled-multicast tail.
[[nodiscard]] HybridReport evaluate_hybrid(const BatchingPolicy& policy,
                                           const HybridConfig& config);

/// R replications of evaluate_hybrid through sim::replicate (its header has
/// the seed, fold and CI rules), side by side on `pool` (null = serial) into
/// private shards of config.sink. The fold copies replication 0 and adds the
/// tail's waits, batch sizes and counts; the tail's channel utilization and
/// the combined mean wait are the means over the replications (every
/// replication has the same capacity), and the replication means are the
/// per-replication combined mean waits. config.sampler is not forwarded.
[[nodiscard]] sim::Replicated<HybridReport> evaluate_hybrid_replicated(
    const BatchingPolicy& policy, const HybridConfig& config,
    std::size_t reps, util::TaskPool* pool = nullptr);

}  // namespace vodbcast::batching
