#include "series/broadcast_series.hpp"

#include <algorithm>

#include "util/contracts.hpp"
#include "util/math.hpp"

namespace vodbcast::series {

std::vector<std::uint64_t> BroadcastSeries::prefix(int k,
                                                   std::uint64_t width) const {
  VB_EXPECTS(k >= 0);
  VB_EXPECTS(width >= 1);
  std::vector<std::uint64_t> values;
  values.reserve(static_cast<std::size_t>(k));
  // Once the cap binds, every later element is >= width (the series is
  // non-decreasing), so stop evaluating the recurrence — for narrow widths
  // with many channels the raw elements would overflow 64 bits long before
  // the prefix ends.
  bool capped = false;
  std::uint64_t value = 0;
  for (int n = 1; n <= k; ++n) {
    if (capped) {
      values.push_back(width);
      continue;
    }
    value = n == 1 ? element(1) : element_after(n, value);
    if (value >= width) {
      capped = true;
      values.push_back(width);
    } else {
      values.push_back(value);
    }
  }
  return values;
}

std::uint64_t BroadcastSeries::element_after(
    int n, std::uint64_t /*previous*/) const {
  return element(n);
}

std::uint64_t BroadcastSeries::prefix_sum(int k, std::uint64_t width) const {
  std::uint64_t sum = 0;
  for (const std::uint64_t value : prefix(k, width)) {
    sum = util::add_or_die(sum, value);
  }
  return sum;
}

std::uint64_t SkyscraperSeries::element(int n) const {
  VB_EXPECTS(n >= 1);
  std::uint64_t value = 1;
  for (int m = 2; m <= n; ++m) {
    value = element_after(m, value);
  }
  return value;
}

std::uint64_t SkyscraperSeries::element_after(int n,
                                              std::uint64_t previous) const {
  VB_EXPECTS(n >= 2);
  if (n == 2) {
    return 2;
  }
  switch (n % 4) {
    case 0:
      return util::add_or_die(util::mul_or_die(2, previous), 1);
    case 2:
      return util::add_or_die(util::mul_or_die(2, previous), 2);
    default:  // n mod 4 == 1 or 3
      return previous;
  }
}

std::uint64_t FastSeries::element(int n) const {
  VB_EXPECTS(n >= 1);
  VB_EXPECTS_MSG(n <= 63, "fast series overflows past n = 63");
  return std::uint64_t{1} << (n - 1);
}

std::uint64_t FlatSeries::element(int n) const {
  VB_EXPECTS(n >= 1);
  return 1;
}

std::unique_ptr<BroadcastSeries> make_series(const std::string& name) {
  if (name == "skyscraper") {
    return std::make_unique<SkyscraperSeries>();
  }
  if (name == "fast") {
    return std::make_unique<FastSeries>();
  }
  if (name == "flat") {
    return std::make_unique<FlatSeries>();
  }
  VB_EXPECTS_MSG(false, "unknown broadcast series: " + name);
  return nullptr;  // unreachable
}

namespace skyscraper {

bool is_odd_group_element(std::uint64_t value) noexcept {
  return value % 2 == 1;
}

int first_index_reaching(std::uint64_t value) {
  if (value == 0) {
    return 0;
  }
  const SkyscraperSeries series;
  for (int n = 1;; ++n) {
    if (series.element(n) >= value) {
      return n;
    }
  }
}

}  // namespace skyscraper
}  // namespace vodbcast::series
