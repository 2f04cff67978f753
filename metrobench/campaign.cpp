#include "campaign.hpp"

#include <cstdio>
#include <cstring>

namespace metrobench {

Digest& Digest::add(std::uint64_t v) noexcept {
  bytes(&v, sizeof(v));
  return *this;
}

Digest& Digest::add(double v) noexcept {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return add(bits);
}

Digest& Digest::add(const std::string& s) noexcept {
  bytes(s.data(), s.size());
  return add(static_cast<std::uint64_t>(s.size()));
}

Digest& Digest::add(const vodbcast::sim::Distribution& d) {
  add(static_cast<std::uint64_t>(d.count()));
  if (d.empty()) {
    return *this;
  }
  if (!d.folded()) {
    // Every sample, in order: cheaper than sorting for quantiles, and exact.
    bytes(d.samples().data(), d.samples().size() * sizeof(double));
    return *this;
  }
  return add(d.mean())
      .add(d.min())
      .add(d.max())
      .add(d.stddev())
      .add(d.quantile(0.25))
      .add(d.quantile(0.5))
      .add(d.quantile(0.75))
      .add(d.quantile(0.99))
      .add(d.samples_folded());
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

void Digest::bytes(const void* data, std::size_t n) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ULL;
  }
}

}  // namespace metrobench
