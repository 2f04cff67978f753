// Online per-title popularity tracking for the adaptive control plane.
//
// The static hybrid (batching::evaluate_hybrid) fixes the hot set from the
// prior Zipf ranks once; real metropolitan demand is non-stationary (new
// releases churn the ranks), so the controller needs a live estimate of each
// title's request rate. The estimator keeps one exponentially-decayed weight
// per title with a *known-answer decay contract* so results are reproducible
// under replication (sim::replicate):
//
//   weight_v(t) = sum over observations of v at t_obs <= t of
//                 2^(-(t - t_obs) / half_life)
//
// i.e. a single observation is worth exactly 1 at the instant it lands, 1/2
// one half-life later, 1/4 after two. For a stationary Poisson stream of
// rate lambda the stationary expected weight is lambda * half_life / ln 2,
// so rates convert to weights and back in closed form:
//
//   estimated_rate(t) = weight(t) * ln 2 / half_life
//
// Decay is applied lazily per title (one exp2 per observation/read), so the
// estimator is O(1) per request and never walks the catalog on the hot path.
#pragma once

#include <cstddef>
#include <vector>

#include "core/units.hpp"
#include "core/video.hpp"

namespace vodbcast::ctrl {

class PopularityEstimator {
 public:
  /// Preconditions: catalog_size >= 1, half_life > 0.
  PopularityEstimator(std::size_t catalog_size, core::Minutes half_life);

  /// Warm start: installs the stationary weight lambda_v * half_life / ln 2
  /// for every title, where lambda_v = popularity[v] * arrivals_per_minute.
  /// The controller seeds the prior Zipf ranks so the first epochs do not
  /// demote titles merely because the window is empty.
  /// Preconditions: popularity.size() == catalog_size, rates non-negative.
  void seed_prior(const std::vector<double>& popularity,
                  double arrivals_per_minute);

  /// Accounts one request for `video` at simulation time `at`. Per-title
  /// observation times must be non-decreasing (the discrete-event clock
  /// guarantees this; the estimator contract-checks it).
  void observe(core::VideoId video, core::Minutes at);

  /// The decayed weight of `video` at time `at` (>= its last observation).
  [[nodiscard]] double weight(core::VideoId video, core::Minutes at) const;

  /// All weights decayed to the common instant `at`, indexed by title.
  [[nodiscard]] std::vector<double> weights_at(core::Minutes at) const;

  /// weight(video, at) * ln 2 / half_life — requests per minute.
  [[nodiscard]] double estimated_rate_per_minute(core::VideoId video,
                                                 core::Minutes at) const;

  /// Titles ordered by decayed weight at `at`, descending; equal weights
  /// break ties on the lower title id so the order is deterministic.
  [[nodiscard]] std::vector<std::size_t> ranking(core::Minutes at) const;

  [[nodiscard]] std::size_t catalog_size() const noexcept {
    return titles_.size();
  }
  [[nodiscard]] core::Minutes half_life() const noexcept { return half_life_; }

 private:
  struct Title {
    double weight = 0.0;
    double last_update = 0.0;  ///< minutes; weight is current as of here
  };

  /// 2^(-(to - from)/half_life); 1.0 when to == from.
  [[nodiscard]] double decay(double from, double to) const;

  std::vector<Title> titles_;
  core::Minutes half_life_;
};

}  // namespace vodbcast::ctrl
