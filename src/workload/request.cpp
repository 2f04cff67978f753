#include "workload/request.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/contracts.hpp"

namespace vodbcast::workload {

RequestGenerator::RequestGenerator(std::vector<double> popularity,
                                   double arrivals_per_minute, util::Rng rng)
    : arrivals_(arrivals_per_minute, rng.fork()), rng_(rng.fork()) {
  VB_EXPECTS(!popularity.empty());
  double total = 0.0;
  cdf_.reserve(popularity.size());
  for (const double p : popularity) {
    VB_EXPECTS(p >= 0.0);
    total += p;
    cdf_.push_back(total);
  }
  VB_EXPECTS_MSG(std::abs(total - 1.0) < 1e-6,
                 "popularity must be normalized");
  cdf_.back() = 1.0;  // guard against rounding at the top
}

Request RequestGenerator::next() {
  const core::Minutes at = arrivals_.next();
  const double u = rng_.next_double();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  const auto rank = static_cast<std::size_t>(
      std::min<std::ptrdiff_t>(it - cdf_.begin(),
                               static_cast<std::ptrdiff_t>(cdf_.size()) - 1));
  return Request{at, static_cast<core::VideoId>(rank)};
}

std::vector<Request> RequestGenerator::generate_until(core::Minutes horizon) {
  VB_EXPECTS(std::isfinite(horizon.v));
  std::vector<Request> requests;
  while (true) {
    Request r = next();
    if (r.arrival.v >= horizon.v) {
      break;
    }
    requests.push_back(r);
  }
  return requests;
}

RequestFeed::RequestFeed(RequestGenerator generator, core::Minutes horizon,
                         Filter filter)
    : generator_(std::move(generator)),
      horizon_(horizon.v),
      filter_(std::move(filter)) {
  VB_EXPECTS(std::isfinite(horizon_));
  advance();
}

}  // namespace vodbcast::workload
