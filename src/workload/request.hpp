// Subscriber request stream: Poisson arrivals + popularity-weighted video
// selection.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
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

/// Inverse-CDF title sampler over normalized popularity, with a guide table
/// (Chen & Asau, AIIE Trans. 6(2), 1974) so a draw costs O(1) expected
/// instead of a binary search. The guide has m entries, m the smallest
/// power of two >= the catalog size; entry j holds the rank of j/m.
class TitleCdf {
 public:
  /// `popularity` must be normalized probabilities per catalog rank.
  explicit TitleCdf(const std::vector<double>& popularity);

  /// The rank std::upper_bound(cdf(), u) points at, clamped to the last
  /// title. Precondition: u in [0, 1).
  [[nodiscard]] std::size_t rank(double u) const noexcept {
    // u * m is exact and floor(u * m) / m <= u, so upper_bound's rank of u
    // lies at or past the entry's rank, and all ranks before the entry
    // have cdf_ <= u: the forward scan ends exactly on upper_bound's rank,
    // within the table since cdf_.back() = 1 > u.
    std::size_t i = guide_[static_cast<std::size_t>(
        u * static_cast<double>(guide_.size()))];
    while (cdf_[i] <= u) {
      ++i;
    }
    return std::min(i, cdf_.size() - 1);
  }

  /// Running sums of the popularity; the last entry is exactly 1.
  [[nodiscard]] const std::vector<double>& cdf() const noexcept {
    return cdf_;
  }
  /// m, the guide table's entry count.
  [[nodiscard]] std::size_t guide_size() const noexcept {
    return guide_.size();
  }

 private:
  std::vector<double> cdf_;
  std::vector<std::uint32_t> guide_;
};

/// Generates the request stream for a catalog.
class RequestGenerator {
 public:
  /// `popularity` must be normalized probabilities per catalog rank.
  RequestGenerator(const std::vector<double>& popularity,
                   double arrivals_per_minute, util::Rng rng);

  /// The next request in arrival order.
  Request next() {
    const core::Minutes at = arrivals_.next();
    const std::size_t rank = titles_.rank(rng_.next_double());
    return Request{at, static_cast<core::VideoId>(rank)};
  }

  /// All requests within [0, horizon); `horizon` must be finite.
  [[nodiscard]] std::vector<Request> generate_until(core::Minutes horizon);

  [[nodiscard]] double arrivals_per_minute() const noexcept {
    return arrivals_.rate();
  }

 private:
  PoissonProcess arrivals_;
  util::Rng rng_;
  TitleCdf titles_;
};

/// The requests generate_until(horizon) would return, pulled one at a time
/// through a one-request look-ahead, so a consumer holds O(1) requests
/// instead of the whole stream. Models sim::ArrivalFeed; every engine pulls
/// its arrivals from one. `horizon` must be finite. An optional filter sees
/// each draw before the horizon once, in draw order, never the draw that
/// ends the stream: false drops the request, and a kept request may be
/// rewritten (arrivals must stay time-ordered). The draws never change.
class RequestFeed {
 public:
  using Filter = std::function<bool(Request&)>;
  RequestFeed(RequestGenerator generator, core::Minutes horizon,
              Filter filter = {});

  /// Arrival time of the next request; +infinity once the stream reached
  /// the horizon.
  [[nodiscard]] double next_at() const noexcept {
    return ahead_.arrival.v < horizon_ ? ahead_.arrival.v : kExhausted;
  }
  /// An upper bound on the requests the feed yields, for sizing storage
  /// that takes one entry per arrival: the Poisson mean rate x horizon
  /// plus five standard deviations, rounded up. A run draws more with
  /// probability about 3e-7 (the storage then grows); a filter only keeps
  /// fewer.
  [[nodiscard]] std::size_t count_bound() const noexcept;
  /// Removes and returns the next request. Precondition: next_at() is
  /// finite.
  Request pop() {
    const Request request = ahead_;
    advance();
    return request;
  }

 private:
  static constexpr double kExhausted = std::numeric_limits<double>::infinity();

  /// Draws until the filter keeps a request or the stream ends.
  void advance() {
    do {
      ahead_ = generator_.next();
    } while (filter_ && ahead_.arrival.v < horizon_ && !filter_(ahead_));
  }

  RequestGenerator generator_;
  double horizon_;
  Filter filter_;
  Request ahead_;
};

}  // namespace vodbcast::workload
