#include "workload/request.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

#include "util/contracts.hpp"

namespace vodbcast::workload {

TitleCdf::TitleCdf(const std::vector<double>& popularity) {
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
  // Entry j is upper_bound's rank of j/m, which is exact for a power-of-two
  // m. The ranks only grow with j, so one forward walk fills the table, and
  // it stops in range because cdf_.back() = 1 > j/m.
  guide_.resize(std::bit_ceil(cdf_.size()));
  const auto m = static_cast<double>(guide_.size());
  std::size_t title = 0;
  for (std::size_t j = 0; j < guide_.size(); ++j) {
    while (cdf_[title] <= static_cast<double>(j) / m) {
      ++title;
    }
    guide_[j] = static_cast<std::uint32_t>(title);
  }
}

RequestGenerator::RequestGenerator(const std::vector<double>& popularity,
                                   double arrivals_per_minute, util::Rng rng)
    : arrivals_(arrivals_per_minute, rng.fork()),
      rng_(rng.fork()),
      titles_(popularity) {}

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

std::size_t RequestFeed::count_bound() const noexcept {
  const double mean =
      generator_.arrivals_per_minute() * std::max(horizon_, 0.0);
  const double bound = std::ceil(mean + 5.0 * std::sqrt(mean));
  // Saturates long before the conversion could overflow; no store reserves
  // anywhere near this many entries.
  constexpr double kSaturate = 0x1p62;
  return static_cast<std::size_t>(std::min(bound, kSaturate));
}

}  // namespace vodbcast::workload
