// metro::simulate_federation — the multi-head-end campaign driver.
//
// One federation run has four phases on the slot/merge contract
// (parallelism changes who computes a slot, never where results land):
//
//   A. per-region workload (parallel, one region per util::TaskPool slot):
//      region g pulls its Poisson/Zipf request stream from a private Rng
//      seeded with the (g+1)-th output of util::SplitMix64(config.seed),
//      keeping the full stream and its contended subsequence: every
//      arrival metro::uncontended() does not mark (a replicated title at
//      a lit origin touches no router state);
//   B. routing (serial): only the contended subsequences are k-way merged
//      in time order (ties break on the lower region index) and fed
//      through metro::Router, whose shared link/slot state demands one
//      writer;
//   C. per-region accounting (parallel): region g's slot walks its full
//      stream in arrival order, taking the next routed decision for a
//      contended arrival and building metro::local_broadcast() for the
//      rest, so every add lands in the order routing every arrival gives;
//      it computes each request's penalized wait (broadcast tune wait
//      and/or tail admission wait, plus link transit, or the rejection
//      penalty), and records metrics, spans and wait samples into a
//      private obs::Sink and sim::Distribution;
//   D. fold (serial): per-region sinks merge into config.sink via
//      obs::Sink::merge_from and per-region distributions merge metro-wide,
//      all in region index order.
//
// Phases A-C run over consecutive time windows of about 2^15 arrivals
// (the width follows from the regions' total rate) as a three-stage
// pipeline (util::parallel_for_each_alongside): the calling thread routes
// window w (B) while the pool generates window w+1 (A) and accounts window
// w-1 (C), each stage in its own buffers, and once B returns the calling
// thread runs the step's unclaimed A and C tasks too. The request
// generators, the router and the per-region reports and sinks carry over
// from one window to the next. Windows partition time, so the result
// equals one pass over the whole horizon; full streams take three window
// slots (C reads window w-1 while A writes w+1), contended subsequences
// and decisions two. Each region's feed and ledger, which A and C write
// once per arrival, sit on cache lines of their own. The result is
// bit-identical at any thread count, including none.
//
// Observability (docs/OBSERVABILITY.md): the unlabeled counter
// `metro.arrivals` plus {region}-labeled families `metro.region_arrivals`,
// `metro.served_local`, `metro.rerouted`, `metro.rejected` and
// `metro.link_bytes`, all labeled by the ORIGIN region (demand-side
// accounting, which is what keeps phase C single-writer); conservation
//
//   sum(served_local) + sum(rerouted) + sum(rejected) == arrivals
//
// holds exactly. Per arrival a `region_session` span (value = penalized
// wait, channel = serving region) is recorded, with a `reroute` child
// (value = transit minutes) under every spilled session.
#pragma once

#include <cstdint>
#include <vector>

#include "core/video.hpp"
#include "fault/plan.hpp"
#include "metro/placement.hpp"
#include "metro/router.hpp"
#include "metro/topology.hpp"
#include "obs/sink.hpp"
#include "sim/replicate.hpp"
#include "sim/stats.hpp"
#include "util/task_pool.hpp"
#include "workload/zipf.hpp"

namespace vodbcast::metro {

struct FederationConfig {
  std::size_t catalog_size = 100;
  double zipf_theta = workload::kPaperSkew;
  /// Replication degree R: the top-R titles broadcast from every region.
  std::size_t replicate_top = 10;
  /// SB channels each region devotes to each replicated title.
  int sb_channels_per_title = 6;
  /// Skyscraper width for the replicated head's broadcast design.
  std::uint64_t sb_width = 52;
  core::VideoParams video{};
  core::Minutes horizon{600.0};
  core::Minutes patience{15.0};
  core::Minutes spill_wait{5.0};
  /// Penalized wait charged to a rejected request (the "call back later"
  /// cost), so the headline mean cannot be gamed by rejecting everyone.
  core::Minutes reject_penalty{30.0};
  std::uint64_t seed = 1;
  /// Streaming cap for the wait distributions (0 = retain everything).
  std::size_t stats_sample_cap = 0;
  obs::Sink* sink = nullptr;  ///< optional; per-region sinks fold into it
  /// Per-region fault domains: empty, or exactly one plan per region.
  std::vector<fault::Plan> fault_plans{};
};

struct RegionReport {
  std::uint64_t arrivals = 0;
  std::uint64_t served_local = 0;
  std::uint64_t rerouted_out = 0;  ///< originated here, served elsewhere
  std::uint64_t rerouted_in = 0;   ///< served here for another region
  std::uint64_t rejected = 0;
  double link_mbits = 0.0;  ///< link traffic serving this region's demand
  /// Penalized wait (minutes) of every request originating here: tune/
  /// admission wait + link transit for served ones, reject_penalty for
  /// rejected ones.
  sim::Distribution wait_minutes;
};

struct FederationReport {
  std::vector<RegionReport> regions;
  std::uint64_t arrivals = 0;
  std::uint64_t served_local = 0;
  std::uint64_t rerouted = 0;
  std::uint64_t rejected = 0;
  double link_mbits = 0.0;
  sim::Distribution wait_minutes;  ///< metro-wide penalized waits
  std::size_t replicated_titles = 0;
  int tail_slots_total = 0;
  /// D1 of the replicated head's per-region SB design (minutes); 0 when
  /// nothing is replicated.
  double broadcast_latency_min = 0.0;

  [[nodiscard]] double mean_penalized_wait_min() const {
    return wait_minutes.empty() ? 0.0 : wait_minutes.mean();
  }
  [[nodiscard]] double reroute_rate() const {
    return arrivals == 0
               ? 0.0
               : static_cast<double>(rerouted) / static_cast<double>(arrivals);
  }
  [[nodiscard]] double rejection_rate() const {
    return arrivals == 0
               ? 0.0
               : static_cast<double>(rejected) / static_cast<double>(arrivals);
  }
};

/// One federation campaign over `topology`. Throws std::invalid_argument
/// on a malformed config (fault plan count, infeasible SB head design,
/// non-positive horizon, negative or non-finite patience, spill_wait or
/// reject_penalty).
[[nodiscard]] FederationReport simulate_federation(
    const Topology& topology, const FederationConfig& config,
    util::TaskPool* pool = nullptr);

/// R federation replications through sim::replicate (its header has the
/// seed, fold and CI rules), run one after another with the pool applied
/// inside each (regions stay the parallel unit) and recording straight into
/// config.sink. The fold starts from a report capped at
/// config.stats_sample_cap; the replication means are the per-replication
/// mean penalized waits. Throws std::invalid_argument when reps == 0.
[[nodiscard]] sim::Replicated<FederationReport> simulate_federation_replicated(
    const Topology& topology, const FederationConfig& config,
    std::size_t reps, util::TaskPool* pool = nullptr);

}  // namespace vodbcast::metro
