// The adaptive control plane run end to end: an online hybrid server inside
// the discrete-event simulation.
//
// batching::evaluate_hybrid answers the paper's static question — given the
// Zipf ranks, split the bandwidth once between SB broadcast (hot titles) and
// scheduled multicast (the tail). This module answers the *online* question:
// demand is non-stationary, so a ctrl::PopularityEstimator tracks per-title
// request rates from the live stream, and a ctrl::ChannelAllocator re-solves
// the split at every control epoch. Transitions obey the SB plan contract:
//
//   * a promoted title starts a fresh broadcast plan at the epoch boundary
//     and immediately absorbs its pending tail queue (those subscribers tune
//     to the first Segment-1 slot);
//   * a demoted title keeps its channels until every tuned-in client has
//     finished receiving on the old plan ("drain"); only then is the
//     bandwidth handed to the tail. New arrivals during the drain are routed
//     to the tail, so every client always sees one consistent plan and no
//     loader ever spans a channel retune (tools/trace_analyze checks this
//     drain contract on a --spans-out capture);
//   * when the budget cannot cover the hot set, the allocator degrades
//     (fewer channels per title, then fewer hot titles) instead of rejecting
//     requests; the "ctrl.degraded" gauge records the choice.
//
// The non-stationary scenario is a mid-run Zipf rank shuffle ("popularity
// flip"): at flip_at the rank->title permutation is re-drawn from the run
// seed, so yesterday's tail carries today's demand. The report tracks how
// many epochs the controller needs to re-converge its hot set onto the new
// ranks.
#pragma once

#include <cstdint>
#include <vector>

#include "batching/queue_policies.hpp"
#include "core/video.hpp"
#include "ctrl/allocator.hpp"
#include "ctrl/popularity.hpp"
#include "fault/injector.hpp"
#include "obs/sampler.hpp"
#include "obs/sink.hpp"
#include "sim/replicate.hpp"
#include "sim/stats.hpp"
#include "util/task_pool.hpp"
#include "workload/zipf.hpp"

namespace vodbcast::ctrl {

struct AdaptiveConfig {
  core::MbitPerSec total_bandwidth{600.0};
  std::size_t catalog_size = 100;
  /// Target hot-set size (shrunk only under overload degradation).
  std::size_t hot_titles = 10;
  /// Preferred SB channels per hot title (shrunk first under overload).
  int broadcast_channels_per_video = 6;
  std::uint64_t sb_width = 52;
  core::VideoParams video{};
  double arrivals_per_minute = 10.0;
  double zipf_theta = workload::kPaperSkew;
  core::Minutes horizon{2000.0};

  /// Control-plane knobs. epoch <= 0 disables re-allocation entirely: the
  /// initial (prior-rank) allocation is frozen, which is exactly the static
  /// evaluate_hybrid baseline run on the same request stream.
  core::Minutes epoch{60.0};
  core::Minutes half_life{60.0};
  double promote_ratio = 1.2;
  double demote_ratio = 0.8;
  int min_tail_channels = 1;

  /// Simulation time of the popularity flip; < 0 disables the scenario.
  core::Minutes flip_at{-1.0};

  std::uint64_t seed = 11;
  /// Sample cap for the report's three wait Distributions, as
  /// sim::SimulationConfig::stats_sample_cap: 0 (the default) retains every
  /// wait; a positive cap folds past it into a bounded quantile sketch.
  std::size_t stats_sample_cap = 0;
  /// Optional observability attachment (not owned): "ctrl.*" metrics and
  /// spans — an epoch per control interval with its drains and instant
  /// promote / fault_hit / fault_degraded children, and a session tree per
  /// served client, which tools/trace_analyze checks.
  obs::Sink* sink = nullptr;
  /// Optional time-series sampler (not owned): "ctrl.hot_titles",
  /// "ctrl.tail_channels", "ctrl.draining_titles", "ctrl.queue_depth".
  obs::Sampler* sampler = nullptr;
  /// Optional fault injector (not owned). Episode channels key hot titles
  /// as title id + 1 (-1 = every title). A channel outage covering at
  /// least half of the elapsed control epoch on a hot title forces its
  /// demotion through the normal drain machinery (graceful degradation:
  /// demand re-routes to the tail until the channel heals and the
  /// allocator re-promotes); a server restart makes every hot plan start
  /// fresh at the restart instant, resetting the Segment-1 slot clock.
  /// Null, or a plan with zero episodes, leaves the run bit-identical.
  const fault::Injector* injector = nullptr;
};

struct AdaptiveReport {
  /// Demand-weighted wait of every served request, both sides.
  sim::Distribution wait_minutes;
  sim::Distribution hot_wait_minutes;   ///< served by periodic broadcast
  sim::Distribution tail_wait_minutes;  ///< served by scheduled multicast
  std::uint64_t served_hot = 0;
  std::uint64_t served_tail = 0;
  /// Requests still queued on the tail at the horizon (never rejected,
  /// simply not yet served when observation stopped).
  std::uint64_t unserved = 0;

  std::uint64_t epochs = 0;
  std::uint64_t reallocs = 0;      ///< epochs that changed the allocation
  std::uint64_t promotions = 0;
  std::uint64_t demotions = 0;
  std::uint64_t drains_completed = 0;
  std::uint64_t deferred_promotions = 0;
  std::uint64_t degraded_epochs = 0;
  /// Fault-plan consequences (zero without an injector):
  std::uint64_t fault_forced_demotions = 0;  ///< hot titles demoted by outage
  std::uint64_t fault_restarts = 0;          ///< server-restart episodes hit

  int channels_per_video = 0;      ///< after any overload degradation
  /// Guaranteed worst-case wait of a hot title at channels_per_video (the
  /// SB access latency D1); degradation raises it but never unbounds it.
  core::Minutes broadcast_worst_latency{0.0};
  bool degraded = false;
  std::vector<std::size_t> final_hot;  ///< sorted title ids at the horizon

  /// Epochs after flip_at until the hot set first carried 90% of the
  /// oracle hot set's demand mass; -1 when a flip happened but the
  /// controller never re-converged (or no flip ran).
  std::int64_t converged_epochs_after_flip = -1;

  [[nodiscard]] double mean_wait_minutes() const {
    return wait_minutes.empty() ? 0.0 : wait_minutes.mean();
  }
};

/// Runs the adaptive hybrid end to end on one seeded request stream.
/// Preconditions (std::invalid_argument, from the allocator): a budget that
/// carries the tail floor, differing hysteresis thresholds.
[[nodiscard]] AdaptiveReport simulate_adaptive(const batching::BatchingPolicy& policy,
                                               const AdaptiveConfig& config);

/// R replications of simulate_adaptive through sim::replicate (its header
/// has the seed, fold and CI rules), side by side on `pool` (null = serial)
/// into private shards of config.sink. The fold copies replication 0 and
/// adds the rest (convergence merges pessimistically); the replication
/// means are the per-replication overall mean waits. config.sampler is not
/// forwarded.
[[nodiscard]] sim::Replicated<AdaptiveReport> simulate_adaptive_replicated(
    const batching::BatchingPolicy& policy, const AdaptiveConfig& config,
    std::size_t reps, util::TaskPool* pool = nullptr);

}  // namespace vodbcast::ctrl
