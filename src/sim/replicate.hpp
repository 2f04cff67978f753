// The replication driver: R independently seeded replications of a run,
// folded into one report, plus the between-replication spread one run
// cannot give. sim::simulate_replicated, ctrl::simulate_adaptive_replicated,
// batching::evaluate_hybrid_replicated and
// metro::simulate_federation_replicated all call sim::replicate, which owns
// the rules that make their numbers comparable and thread-count
// independent:
//
//   * seeds: replication r runs with the (r+1)-th output of
//     util::SplitMix64(seed), a pure function of (seed, r);
//   * fold: after the join, on the caller's thread and in replication
//     order, each report folds into the merged one (the caller's fold) and
//     each private sink shard into the caller's sink;
//   * means: a replication that served anyone adds its mean wait; one that
//     served nobody adds no sample;
//   * CI: 1.96 * s / sqrt(n) over those n means, s their sample standard
//     deviation; 0 below two means.
#pragma once

#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "obs/sink.hpp"
#include "sim/stats.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"
#include "util/task_pool.hpp"

namespace vodbcast::sim {

template <typename Report>
struct Replicated {
  Report merged;  ///< every replication folded in replication order
  std::size_t replications = 0;
  /// Mean wait of each replication that served anyone, in replication order.
  Distribution replication_means;
  double mean_ci95 = 0.0;  ///< replication_ci95(replication_means)
};

[[nodiscard]] inline double replication_ci95(const Distribution& means) {
  const auto n = means.count();
  if (n < 2) {
    return 0.0;
  }
  // Population -> sample stddev, then the normal-approximation interval.
  const double pop = means.stddev();
  const double s =
      pop * std::sqrt(static_cast<double>(n) / static_cast<double>(n - 1));
  return 1.96 * s / std::sqrt(static_cast<double>(n));
}

/// Where a replicated run spends its pool.
enum class PoolUse : std::uint8_t {
  /// Replications run side by side on the pool, each into a pre-sized
  /// report slot and a private shard of the caller's sink.
  kAcrossReplications,
  /// Replications run one after another, each handed the pool and the
  /// caller's sink itself, so the sink keeps the run's own record order.
  kWithinReplication,
};

namespace detail {
inline void add_mean(Distribution& means, const Distribution& waits) {
  if (!waits.empty()) {
    means.add(waits.mean());
  }
}
inline void add_mean(Distribution& means, double mean) { means.add(mean); }
}  // namespace detail

/// Runs `run(seed, sink, pool) -> Report` `reps` times and folds each
/// report with `fold(merged, report, r)`, r = 0 first. `mean` projects a
/// report onto its wait Distribution (an empty one adds no mean) or onto a
/// double taken as is. `sink` may be null. Precondition: reps >= 1.
template <typename Report, typename Run, typename Fold, typename Mean>
[[nodiscard]] Replicated<Report> replicate(std::uint64_t seed,
                                           std::size_t reps,
                                           util::TaskPool* pool,
                                           obs::Sink* sink, PoolUse pool_use,
                                           Run&& run, Fold&& fold, Mean mean) {
  VB_EXPECTS(reps >= 1);
  util::SplitMix64 seed_stream(seed);
  std::vector<std::uint64_t> seeds(reps);
  for (auto& s : seeds) {
    s = seed_stream.next();
  }

  Replicated<Report> out;
  out.replications = reps;
  const auto absorb = [&](const Report& report, std::size_t r) {
    fold(out.merged, report, r);
    detail::add_mean(out.replication_means, std::invoke(mean, report));
  };
  if (pool_use == PoolUse::kWithinReplication) {
    for (std::size_t r = 0; r < reps; ++r) {
      absorb(run(seeds[r], sink, pool), r);
    }
  } else {
    std::vector<Report> reports(reps);
    std::vector<std::unique_ptr<obs::Sink>> shards(reps);
    util::parallel_for_each(pool, reps, [&](std::size_t r) {
      if (sink != nullptr) {
        shards[r] = sink->make_shard();
      }
      reports[r] = run(seeds[r], shards[r].get(), nullptr);
    });
    for (std::size_t r = 0; r < reps; ++r) {
      absorb(reports[r], r);
      if (sink != nullptr) {
        sink->merge_from(*shards[r]);
      }
    }
  }
  out.mean_ci95 = replication_ci95(out.replication_means);
  return out;
}

}  // namespace vodbcast::sim
