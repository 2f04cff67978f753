#include "workload/arrivals.hpp"

#include <cmath>

#include "util/contracts.hpp"

namespace vodbcast::workload {

PoissonProcess::PoissonProcess(double arrivals_per_minute, util::Rng rng)
    : rate_(arrivals_per_minute), rng_(rng) {
  VB_EXPECTS(arrivals_per_minute > 0.0 && std::isfinite(arrivals_per_minute));
}

core::Minutes PoissonProcess::next() {
  now_ += core::Minutes{rng_.next_exponential(rate_)};
  return now_;
}

}  // namespace vodbcast::workload
