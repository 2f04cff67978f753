#include "workload/arrivals.hpp"

#include <cmath>

#include "util/contracts.hpp"

namespace vodbcast::workload {

PoissonProcess::PoissonProcess(double arrivals_per_minute, util::Rng rng)
    : rate_(arrivals_per_minute), rng_(rng) {
  VB_EXPECTS(arrivals_per_minute > 0.0 && std::isfinite(arrivals_per_minute));
}

}  // namespace vodbcast::workload
