#include "metro/router.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

namespace vodbcast::metro {

namespace {

constexpr double kNoPending = -1.0;

bool dark_in(const std::vector<fault::Plan>* fault_plans, std::size_t region,
             double t) {
  if (fault_plans == nullptr || fault_plans->empty()) {
    return false;
  }
  for (const auto& e : (*fault_plans)[region].episodes()) {
    if (e.start_min > t) {
      break;  // episodes are sorted by start time
    }
    if (e.kind == fault::EpisodeKind::kChannelOutage && t < e.end_min) {
      return true;
    }
  }
  return false;
}

}  // namespace

bool uncontended(const Placement& placement,
                 const std::vector<fault::Plan>* fault_plans,
                 const Arrival& arrival) {
  return placement.is_replicated(arrival.video) &&
         !dark_in(fault_plans, arrival.origin, arrival.at.v);
}

RouteDecision local_broadcast(const Arrival& arrival) {
  RouteDecision d;
  d.origin = arrival.origin;
  d.served_by = arrival.origin;
  d.video = arrival.video;
  d.arrival_min = arrival.at.v;
  d.broadcast = true;
  return d;
}

Router::Router(const Topology& topology, const Placement& placement,
               std::vector<int> tail_slots, RouterConfig config)
    : topology_(&topology), placement_(&placement), config_(config) {
  const std::size_t n = topology.size();
  if (tail_slots.size() != n) {
    throw std::invalid_argument(
        "metro::Router tail_slots must be sized to the topology");
  }
  if (config_.fault_plans != nullptr && !config_.fault_plans->empty() &&
      config_.fault_plans->size() != n) {
    throw std::invalid_argument(
        "metro::Router fault plans must be empty or one per region");
  }
  slots_.resize(n);
  for (std::size_t r = 0; r < n; ++r) {
    if (tail_slots[r] < 0) {
      throw std::invalid_argument(
          "metro::Router tail slot budget must be non-negative");
    }
    for (int s = 0; s < tail_slots[r]; ++s) {
      slots_[r].push(0.0);
    }
  }
  pending_.assign(n, std::vector<double>(placement.home.size(), kNoPending));
  busy_.assign(n * n, {});
  substitutes_.reserve(n * n * (n - 1));
  for (std::size_t h = 0; h < n; ++h) {
    for (std::size_t o = 0; o < n; ++o) {
      const auto row = static_cast<std::ptrdiff_t>(substitutes_.size());
      for (std::uint32_t s = 0; s < n; ++s) {
        if (s != h) {
          substitutes_.push_back(s);
        }
      }
      const auto cost = [&](std::uint32_t s) {
        return topology.hops(h, s) + topology.hops(s, o);
      };
      std::sort(substitutes_.begin() + row, substitutes_.end(),
                [&](std::uint32_t a, std::uint32_t b) {
                  const int ca = cost(a);
                  const int cb = cost(b);
                  return ca != cb ? ca < cb : a < b;
                });
    }
  }
}

std::span<const std::uint32_t> Router::substitutes(std::size_t home,
                                                   std::size_t origin) const {
  const std::size_t n = topology_->size();
  return {substitutes_.data() + (home * n + origin) * (n - 1), n - 1};
}

bool Router::dark(std::size_t region, double t) const {
  return dark_in(config_.fault_plans, region, t);
}

bool Router::link_free(std::size_t from, std::size_t to, double t) {
  if (from == to) {
    return true;
  }
  auto& releases = busy_[from * topology_->size() + to];
  while (!releases.empty() && releases.top() <= t) {
    releases.pop();
  }
  return releases.size() <
         static_cast<std::size_t>(topology_->link_capacity());
}

void Router::occupy_link(std::size_t from, std::size_t to, double until) {
  if (from != to) {
    busy_[from * topology_->size() + to].push(until);
  }
}

RouteDecision Router::serve_tail_local(RouteDecision d, std::size_t home,
                                       double start) {
  const double dur = config_.video.duration.v;
  slots_[home].pop();
  slots_[home].push(start + dur);
  pending_[home][d.video] = start;
  d.kind = RouteKind::kLocal;
  d.queue_wait_min = start - d.arrival_min;
  if (home != d.origin) {
    d.transit_min = topology_->transit(home, d.origin).v;
    d.link_mbits = config_.video.size().v;
    occupy_link(home, d.origin, start + d.transit_min + dur);
  }
  return d;
}

RouteDecision Router::route(const Arrival& arrival) {
  if (uncontended(*placement_, config_.fault_plans, arrival)) {
    return local_broadcast(arrival);
  }
  const double t = arrival.at.v;
  const double dur = config_.video.duration.v;
  const double stream_mbits = config_.video.size().v;
  const std::size_t o = arrival.origin;

  RouteDecision d;
  d.origin = arrival.origin;
  d.served_by = arrival.origin;
  d.video = arrival.video;
  d.arrival_min = t;

  if (placement_->is_replicated(arrival.video)) {
    // The origin is dark. Failover: the cheapest non-dark neighbor whose
    // delivery link has room.
    d.broadcast = true;
    for (const std::uint32_t s : substitutes(o, o)) {
      if (dark(s, t) || !link_free(s, o, t)) {
        continue;
      }
      d.kind = RouteKind::kRerouted;
      d.served_by = s;
      d.transit_min = topology_->transit(s, o).v;
      d.link_mbits = stream_mbits;
      occupy_link(s, o, t + d.transit_min + dur);
      return d;
    }
    d.kind = RouteKind::kRejected;
    return d;
  }

  // Tail title: local-first means the placement home.
  const auto h = static_cast<std::size_t>(placement_->home[arrival.video]);
  d.served_by = static_cast<std::uint32_t>(h);
  if (dark(h, t)) {
    // The only copy is behind a dark head end: nothing to spill to.
    d.kind = RouteKind::kRejected;
    return d;
  }
  const bool home_link_ok = link_free(h, o, t);
  const double patience = config_.patience.v;
  if (home_link_ok) {
    // Join a scheduled-but-not-started batch for this title.
    const double pend = pending_[h][arrival.video];
    if (pend >= t && pend - t <= patience) {
      d.kind = RouteKind::kLocal;
      d.queue_wait_min = pend - t;
      if (h != o) {
        d.transit_min = topology_->transit(h, o).v;
        d.link_mbits = stream_mbits;
        occupy_link(h, o, pend + d.transit_min + dur);
      }
      return d;
    }
    if (!slots_[h].empty()) {
      const double start = std::max(t, slots_[h].top());
      if (start - t <= config_.spill_wait.v) {
        return serve_tail_local(d, h, start);
      }
    }
  }
  // Saturated home (or its delivery link is full): spill to the cheapest
  // substitute that has a free slot now — it fetches the title from the
  // home region over one link and streams to the subscriber over another.
  for (const std::uint32_t s : substitutes(h, o)) {
    if (dark(s, t) || slots_[s].empty() || slots_[s].top() > t) {
      continue;
    }
    if (!link_free(h, s, t) || (s != o && !link_free(s, o, t))) {
      continue;
    }
    slots_[s].pop();
    slots_[s].push(t + dur);
    d.kind = RouteKind::kRerouted;
    d.served_by = s;
    d.transit_min =
        topology_->transit(h, s).v + topology_->transit(s, o).v;
    occupy_link(h, s, t + dur + topology_->transit(h, s).v);
    d.link_mbits = stream_mbits;
    if (s != o) {
      occupy_link(s, o, t + dur + d.transit_min);
      d.link_mbits += stream_mbits;
    }
    return d;
  }
  // No spill target: queue at home as long as the subscriber's patience
  // allows, otherwise renege.
  if (home_link_ok && !slots_[h].empty()) {
    const double start = std::max(t, slots_[h].top());
    if (start - t <= patience) {
      return serve_tail_local(d, h, start);
    }
  }
  d.kind = RouteKind::kRejected;
  return d;
}

}  // namespace vodbcast::metro
