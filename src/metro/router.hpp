// Deterministic local-first admission with overflow/failover spill.
//
// The router processes the merged, time-ordered metro arrival stream one
// request at a time and decides, for each, who serves it:
//
//   * replicated-head titles are served by the origin region's own
//     broadcast channels (kLocal). When the origin head end is dark (a
//     fault::kChannelOutage window in its fault domain), the client fails
//     over to the cheapest non-dark neighbor's broadcast, paying the link
//     transit penalty and occupying one link-stream slot (kRerouted);
//   * tail titles are served by their placement home region over
//     duration-long stream slots with batching (clients arriving while a
//     stream is scheduled but not yet started join it). Serving the home
//     region counts as kLocal — local-first means the placement-designated
//     head end — even when the subscriber sits in another region and the
//     stream transits a link. When the home is saturated (next slot frees
//     later than the spill threshold), the request spills to the cheapest
//     substitute region with a free slot, which fetches the title from its
//     home over one link and streams it to the subscriber over another
//     (kRerouted). A dark home, exhausted links, or a wait beyond the
//     subscriber's patience reject the request (kRejected).
//
// Everything is deterministic: arrivals are processed in time order (the
// caller breaks ties by origin region index), candidate neighbors are
// ordered by ring-hop cost with index tie-breaks (tabulated once per
// (home, origin) pair in the constructor, so route() never sorts or
// allocates), and link/slot state evolves only through this ordered
// stream — so the decision sequence is a pure function of (topology,
// placement, config, arrivals) and conservation holds by construction:
//
//   served_local + rerouted + rejected == arrivals.
#pragma once

#include <cstdint>
#include <queue>
#include <span>
#include <vector>

#include "core/video.hpp"
#include "fault/plan.hpp"
#include "metro/placement.hpp"
#include "metro/topology.hpp"

namespace vodbcast::metro {

struct RouterConfig {
  core::VideoParams video{};
  /// Longest admission wait a tail subscriber tolerates before reneging.
  core::Minutes patience{15.0};
  /// Tail wait beyond which the router tries to spill before queueing.
  core::Minutes spill_wait{5.0};
  /// Per-region fault domains (empty, or one plan per region). A region is
  /// dark while any kChannelOutage episode of its plan covers the instant.
  const std::vector<fault::Plan>* fault_plans = nullptr;
};

enum class RouteKind : std::uint8_t {
  kLocal,     ///< served by the placement-designated region
  kRerouted,  ///< spilled to a substitute region over the links
  kRejected,  ///< dark home, exhausted capacity, or patience exceeded
};

/// One metro request: the merged stream the router consumes.
struct Arrival {
  core::Minutes at{0.0};
  core::VideoId video = 0;
  std::uint32_t origin = 0;
};

/// The router's verdict for one arrival.
struct RouteDecision {
  RouteKind kind = RouteKind::kLocal;
  std::uint32_t origin = 0;
  std::uint32_t served_by = 0;  ///< meaningful unless rejected
  core::VideoId video = 0;
  double arrival_min = 0.0;
  /// Tail admission wait (batch start - arrival); 0 for broadcast service,
  /// whose tune wait is a closed-form function of the arrival time and is
  /// added downstream.
  double queue_wait_min = 0.0;
  /// Link transit penalty (sum over the links the stream crosses).
  double transit_min = 0.0;
  /// Data carried over inter-region links for this stream (the full video
  /// per link crossed); 0 for in-region service.
  double link_mbits = 0.0;
  bool broadcast = false;  ///< served from the replicated head
};

/// True when no router state can change `arrival`'s verdict: a replicated
/// title requested from an origin that no kChannelOutage episode of its
/// fault plan covers at the arrival time tunes into that origin's own
/// broadcast and touches no link or slot. Reads only the placement and the
/// fault plans (null, empty, or one per region), never a Router, so pool
/// workers may call it while the caller routes. Router::route() makes this
/// its first test and answers local_broadcast(arrival).
[[nodiscard]] bool uncontended(const Placement& placement,
                               const std::vector<fault::Plan>* fault_plans,
                               const Arrival& arrival);

/// The verdict for an uncontended arrival: kLocal, served by the origin's
/// own broadcast, no queue wait, transit or link traffic.
[[nodiscard]] RouteDecision local_broadcast(const Arrival& arrival);

class Router {
 public:
  /// `tail_slots[r]` is region r's concurrent tail-stream budget (channels
  /// left after the replicated head's broadcast allocation).
  /// Preconditions (std::invalid_argument): tail_slots sized to the
  /// topology; fault_plans, when non-empty, sized to the topology.
  Router(const Topology& topology, const Placement& placement,
         std::vector<int> tail_slots, RouterConfig config);

  /// Routes one arrival and advances the capacity state. Arrival times
  /// must be non-decreasing across calls.
  RouteDecision route(const Arrival& arrival);

  /// True while a kChannelOutage window of `region`'s fault plan covers
  /// time `t` (minutes).
  [[nodiscard]] bool dark(std::size_t region, double t) const;

 private:
  /// Release times, earliest on top.
  using SlotQueue =
      std::priority_queue<double, std::vector<double>, std::greater<>>;

  /// Every region but `home`, sorted by (hops(home, s) + hops(s, origin),
  /// s): the spill order for a tail title homed at `home` and requested
  /// from `origin`. substitutes(o, o) is the broadcast failover order of
  /// origin o, by (hops(o, s), s).
  [[nodiscard]] std::span<const std::uint32_t> substitutes(
      std::size_t home, std::size_t origin) const;
  [[nodiscard]] bool link_free(std::size_t from, std::size_t to, double t);
  void occupy_link(std::size_t from, std::size_t to, double until);
  RouteDecision serve_tail_local(RouteDecision d, std::size_t home,
                                 double start);

  const Topology* topology_;
  const Placement* placement_;
  RouterConfig config_;
  std::vector<SlotQueue> slots_;            ///< per region: release times
  std::vector<std::vector<double>> pending_;  ///< region x title: batch start
  /// busy_[from * N + to]: release times of occupied link streams.
  std::vector<SlotQueue> busy_;
  /// The substitutes() rows, (home * N + origin) * (N - 1) onward:
  /// N * N * (N - 1) entries.
  std::vector<std::uint32_t> substitutes_;
};

}  // namespace vodbcast::metro
