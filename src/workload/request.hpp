// Subscriber request stream: Poisson arrivals + popularity-weighted video
// selection.
#pragma once

#include <limits>
#include <vector>

#include "core/units.hpp"
#include "core/video.hpp"
#include "util/rng.hpp"
#include "workload/arrivals.hpp"

namespace vodbcast::workload {

/// One subscriber pressing "play".
struct Request {
  core::Minutes arrival{0.0};
  core::VideoId video = 0;
};

/// Generates the request stream for a catalog.
class RequestGenerator {
 public:
  /// `popularity` must be normalized probabilities per catalog rank.
  RequestGenerator(std::vector<double> popularity, double arrivals_per_minute,
                   util::Rng rng);

  /// The next request in arrival order.
  Request next();

  /// All requests within [0, horizon); `horizon` must be finite.
  [[nodiscard]] std::vector<Request> generate_until(core::Minutes horizon);

 private:
  std::vector<double> cdf_;
  PoissonProcess arrivals_;
  util::Rng rng_;
};

/// The requests generate_until(horizon) would return, pulled one at a time
/// through a one-request look-ahead, so a consumer holds O(1) requests
/// instead of the whole stream. The generator draws exactly what
/// generate_until draws. Models sim::ArrivalFeed. `horizon` must be
/// finite.
class RequestFeed {
 public:
  RequestFeed(RequestGenerator generator, core::Minutes horizon);

  /// Arrival time of the next request; +infinity once the stream reached
  /// the horizon.
  [[nodiscard]] double next_at() const noexcept {
    return ahead_.arrival.v < horizon_ ? ahead_.arrival.v : kExhausted;
  }
  /// Removes and returns the next request. Precondition: next_at() is
  /// finite.
  Request pop() {
    const Request request = ahead_;
    ahead_ = generator_.next();
    return request;
  }

 private:
  static constexpr double kExhausted = std::numeric_limits<double>::infinity();

  RequestGenerator generator_;
  double horizon_;
  Request ahead_;
};

}  // namespace vodbcast::workload
