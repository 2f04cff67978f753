// Poisson arrival process for subscriber requests.
#pragma once

#include "core/units.hpp"
#include "util/rng.hpp"

namespace vodbcast::workload {

/// Homogeneous Poisson process; inter-arrival gaps are exponential with the
/// given rate (arrivals per minute), which must be positive and finite.
class PoissonProcess {
 public:
  PoissonProcess(double arrivals_per_minute, util::Rng rng);

  /// Advances to and returns the next arrival time.
  core::Minutes next() {
    now_ += core::Minutes{rng_.next_exponential(rate_)};
    return now_;
  }

  [[nodiscard]] core::Minutes now() const noexcept { return now_; }
  [[nodiscard]] double rate() const noexcept { return rate_; }

 private:
  double rate_;
  core::Minutes now_{0.0};
  util::Rng rng_;
};

}  // namespace vodbcast::workload
