#include "metro/federation.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "schemes/skyscraper.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"
#include "workload/request.hpp"

namespace vodbcast::metro {

namespace {

/// D1 of the replicated head's per-region SB design: each region gives
/// every head title K channels, so the broadcast latency is the SB access
/// latency at bandwidth K*b for one video. Throws when the design is
/// infeasible (K < 1).
double broadcast_d1(const FederationConfig& config) {
  if (config.replicate_top == 0) {
    return 0.0;
  }
  if (config.sb_channels_per_title < 1) {
    throw std::invalid_argument(
        "metro federation needs at least one SB channel per replicated "
        "title");
  }
  const schemes::SkyscraperScheme sb(config.sb_width);
  const schemes::DesignInput input{
      core::MbitPerSec{config.video.display_rate.v *
                       config.sb_channels_per_title},
      1, config.video};
  const auto eval = sb.evaluate(input);
  if (!eval.has_value()) {
    throw std::invalid_argument(
        "metro federation replicated-head SB design is infeasible at " +
        std::to_string(config.sb_channels_per_title) + " channels per title");
  }
  return eval->metrics.access_latency.v;
}

/// Broadcast tune wait: time to the next segment-1 repetition boundary.
double tune_wait(double t, double d1) {
  const double into = util::fmod_nonneg(t, d1);
  return into == 0.0 ? 0.0 : d1 - into;
}

std::uint64_t mbits_to_bytes(double mbits) {
  return static_cast<std::uint64_t>(std::llround(mbits * 125000.0));
}

/// Arrivals per window at the federation's aggregate rate (2^15). Two
/// windows are in flight, one routed while the next is generated, so the
/// request and decision buffers hold 2^16 arrivals, not the whole campaign.
constexpr double kWindowArrivals = 32768.0;

/// State a pool task writes once per arrival starts on a cache line of its
/// own, so no two tasks running at the same time write to one line.
constexpr std::size_t kCacheLine = 64;

/// Region g's request feed, which its phase-A task advances.
struct alignas(kCacheLine) RegionFeed {
  workload::RequestFeed feed;
};

/// Region g's phase-C state, carried across arrival windows: its report,
/// its private sink with the instrument handles resolved on it, and the
/// ordinal of the last arrival it accounted.
struct alignas(kCacheLine) RegionLedger {
  RegionReport report;
  std::unique_ptr<obs::Sink> sink;
  obs::Counter* arrivals_total = nullptr;
  obs::Counter* region_arrivals = nullptr;
  obs::Counter* served_local = nullptr;
  obs::Counter* rerouted = nullptr;
  obs::Counter* rejected = nullptr;
  obs::Counter* link_bytes = nullptr;
  std::uint64_t ordinal = 0;

  /// `arrivals_bound` bounds the region's arrivals, one wait each.
  RegionLedger(std::size_t g, const FederationConfig& config,
               std::size_t arrivals_bound) {
    report.wait_minutes.set_sample_cap(config.stats_sample_cap);
    report.wait_minutes.reserve(arrivals_bound);
    if (config.sink == nullptr) {
      return;
    }
    sink = config.sink->make_shard();
    auto& reg = sink->metrics;
    const std::string label = std::to_string(g);
    arrivals_total = &reg.counter("metro.arrivals");
    region_arrivals =
        &reg.counter_family("metro.region_arrivals", {"region"}).with({label});
    served_local =
        &reg.counter_family("metro.served_local", {"region"}).with({label});
    rerouted = &reg.counter_family("metro.rerouted", {"region"}).with({label});
    rejected = &reg.counter_family("metro.rejected", {"region"}).with({label});
    link_bytes =
        &reg.counter_family("metro.link_bytes", {"region"}).with({label});
  }

  /// Penalized wait, counters, sample and spans of one routed arrival that
  /// originated in this region.
  void account(const RouteDecision& d, const FederationConfig& config,
               double d1) {
    ++ordinal;
    double wait = 0.0;
    switch (d.kind) {
      case RouteKind::kRejected:
        wait = config.reject_penalty.v;
        ++report.rejected;
        break;
      case RouteKind::kLocal:
      case RouteKind::kRerouted:
        wait = d.transit_min +
               (d.broadcast ? tune_wait(d.arrival_min + d.transit_min, d1)
                            : d.queue_wait_min);
        if (d.kind == RouteKind::kLocal) {
          ++report.served_local;
        } else {
          ++report.rerouted_out;
        }
        break;
    }
    ++report.arrivals;
    report.link_mbits += d.link_mbits;
    report.wait_minutes.add(wait);

    if (sink == nullptr) {
      return;
    }
    arrivals_total->add();
    region_arrivals->add();
    switch (d.kind) {
      case RouteKind::kLocal:
        served_local->add();
        break;
      case RouteKind::kRerouted:
        rerouted->add();
        break;
      case RouteKind::kRejected:
        rejected->add();
        break;
    }
    if (d.link_mbits > 0.0) {
      link_bytes->add(mbits_to_bytes(d.link_mbits));
    }
    obs::Span session;
    session.start_min = d.arrival_min;
    session.end_min = d.kind == RouteKind::kRejected
                          ? d.arrival_min
                          : d.arrival_min + wait + config.video.duration.v;
    session.phase = obs::SpanPhase::kRegionSession;
    session.channel = static_cast<std::int32_t>(d.served_by);
    session.video = d.video;
    session.client = ordinal;
    session.value = wait;
    const auto id = sink->spans.record(session);
    if (d.kind == RouteKind::kRerouted) {
      obs::Span hop;
      hop.parent = id;
      hop.start_min = d.arrival_min;
      hop.end_min = d.arrival_min + d.transit_min;
      hop.phase = obs::SpanPhase::kReroute;
      hop.channel = static_cast<std::int32_t>(d.served_by);
      hop.video = d.video;
      hop.client = ordinal;
      hop.value = d.transit_min;
      sink->spans.record(hop);
    }
  }
};

}  // namespace

FederationReport simulate_federation(const Topology& topology,
                                     const FederationConfig& config,
                                     util::TaskPool* pool) {
  const std::size_t n = topology.size();
  if (!config.fault_plans.empty() && config.fault_plans.size() != n) {
    throw std::invalid_argument(
        "metro federation fault plans must be empty or one per region");
  }
  if (!(config.horizon.v > 0.0)) {
    throw std::invalid_argument("metro federation horizon must be positive");
  }
  for (const auto& [name, duration] :
       {std::pair{"patience", config.patience},
        std::pair{"spill_wait", config.spill_wait},
        std::pair{"reject_penalty", config.reject_penalty}}) {
    if (!(duration.v >= 0.0 && std::isfinite(duration.v))) {
      throw std::invalid_argument(std::string("metro federation ") + name +
                                  " must be finite and non-negative");
    }
  }
  const double d1 = broadcast_d1(config);

  const PlacementSolver solver(config.catalog_size, config.zipf_theta);
  const Placement placement = solver.solve(topology, config.replicate_top);

  // Channel budgets: the replicated head claims K channels per title in
  // every region; whatever is left serves the tail as stream slots.
  std::vector<int> tail_slots(n, 0);
  int tail_slots_total = 0;
  const int head_channels =
      static_cast<int>(placement.replicated) * config.sb_channels_per_title;
  for (std::size_t r = 0; r < n; ++r) {
    tail_slots[r] = std::max(0, topology.region(r).channels - head_channels);
    tail_slots_total += tail_slots[r];
  }

  // Region g's request stream is drawn from a private Rng seeded with the
  // (g+1)-th output of SplitMix64(config.seed), derived up front so the
  // schedule does not depend on execution order.
  util::SplitMix64 seed_stream(config.seed);
  std::vector<RegionFeed> feeds;
  feeds.reserve(n);
  for (std::size_t g = 0; g < n; ++g) {
    feeds.push_back({workload::RequestFeed(
        workload::RequestGenerator(solver.popularity(),
                                   topology.region(g).arrivals_per_minute,
                                   util::Rng(seed_stream.next())),
        config.horizon)});
  }

  RouterConfig router_config;
  router_config.video = config.video;
  router_config.patience = config.patience;
  router_config.spill_wait = config.spill_wait;
  router_config.fault_plans = &config.fault_plans;
  Router router(topology, placement, tail_slots, router_config);

  std::vector<RegionLedger> ledgers;
  ledgers.reserve(n);
  for (std::size_t g = 0; g < n; ++g) {
    ledgers.emplace_back(g, config, feeds[g].feed.count_bound());
  }

  // Phases A-C run as a three-stage pipeline over consecutive time windows
  // of about kWindowArrivals arrivals each: step w routes window w on the
  // calling thread (B) while the pool generates window w+1 (A) and accounts
  // window w-1 (C). Window w's full streams live in slot w % 3, its
  // contended arrivals and their decisions in slot w % 2, so the three
  // stages touch disjoint buffers, and the feeds are read only between
  // steps. Windows partition time, so their merges concatenate to the merge
  // over the whole horizon; the feeds, the router and the ledgers carry
  // their state from one window to the next.
  const double window_min =
      kWindowArrivals / topology.total_arrivals_per_minute();
  const auto arrivals_left = [&feeds] {
    return std::any_of(feeds.begin(), feeds.end(), [](const auto& region) {
      return region.feed.next_at() != std::numeric_limits<double>::infinity();
    });
  };
  const auto arrival = [](const workload::Request& req, std::size_t origin) {
    return Arrival{req.arrival, req.video, static_cast<std::uint32_t>(origin)};
  };
  const auto* const fault_plans = &config.fault_plans;
  using Streams = std::vector<std::vector<workload::Request>>;
  using Decisions = std::vector<std::vector<RouteDecision>>;
  std::array<Streams, 3> streams{Streams(n), Streams(n), Streams(n)};
  std::array<Streams, 2> contended{Streams(n), Streams(n)};
  std::array<Decisions, 2> per_origin{Decisions(n), Decisions(n)};
  std::vector<std::uint64_t> rerouted_in(n, 0);
  bool routing = false;     // window w was generated in step w-1
  bool accounting = false;  // window w-1 was routed in step w-1
  for (std::size_t w = 0;; ++w) {
    const bool generating = arrivals_left();
    if (!generating && !routing && !accounting) {
      break;
    }
    auto& generated = streams[(w + 1) % 3];
    auto& generated_contended = contended[(w + 1) % 2];
    const auto& accounted = streams[(w + 2) % 3];  // window w-1
    const auto& routed = per_origin[(w + 1) % 2];   // window w-1
    const std::size_t generate_tasks = generating ? n : 0;
    const double generated_end = static_cast<double>(w + 1) * window_min;
    util::parallel_for_each_alongside(
        pool, generate_tasks + (accounting ? n : 0),
        [&](std::size_t task) {
          if (task < generate_tasks) {
            // Phase A — region `task` pulls window w+1's arrivals into
            // local vectors, the full stream and its contended
            // subsequence, and publishes each with one swap.
            auto& feed = feeds[task].feed;
            std::vector<workload::Request> full;
            std::vector<workload::Request> routable;
            full.swap(generated[task]);
            routable.swap(generated_contended[task]);
            full.clear();
            routable.clear();
            while (feed.next_at() < generated_end) {
              const workload::Request req = feed.pop();
              full.push_back(req);
              if (!uncontended(placement, fault_plans, arrival(req, task))) {
                routable.push_back(req);
              }
            }
            full.swap(generated[task]);
            routable.swap(generated_contended[task]);
            return;
          }
          // Phase C — region g accounts window w-1 in arrival order into
          // its private sink and distribution: an uncontended arrival's
          // decision is built here, the others come from phase B in order.
          const std::size_t g = task - generate_tasks;
          auto next = routed[g].begin();
          for (const auto& req : accounted[g]) {
            const Arrival a = arrival(req, g);
            ledgers[g].account(uncontended(placement, fault_plans, a)
                                   ? local_broadcast(a)
                                   : *next++,
                               config, d1);
          }
        },
        [&] {
          if (!routing) {
            return;
          }
          // Phase B — serial routing over the k-way time-ordered merge of
          // window w's contended arrivals (ties break on the lower region
          // index). The router's link/slot state is the one genuinely
          // shared structure, so it gets exactly one writer; the arrivals
          // it cannot affect never reach it.
          const auto& stream = contended[w % 2];
          auto& decisions = per_origin[w % 2];
          for (auto& origin : decisions) {
            origin.clear();
          }
          std::vector<std::size_t> cursor(n, 0);
          for (;;) {
            std::size_t next = n;
            double best = 0.0;
            for (std::size_t g = 0; g < n; ++g) {
              if (cursor[g] >= stream[g].size()) {
                continue;
              }
              const double at = stream[g][cursor[g]].arrival.v;
              if (next == n || at < best) {
                next = g;
                best = at;
              }
            }
            if (next == n) {
              break;
            }
            const RouteDecision d =
                router.route(arrival(stream[next][cursor[next]++], next));
            if (d.kind == RouteKind::kRerouted) {
              ++rerouted_in[d.served_by];
            }
            decisions[next].push_back(d);
          }
        });
    accounting = routing;
    routing = generating;
  }

  // Phase D — fold in region index order.
  FederationReport out;
  out.wait_minutes.set_sample_cap(config.stats_sample_cap);
  std::size_t accounted = 0;
  for (const auto& ledger : ledgers) {
    accounted += ledger.report.wait_minutes.count();
  }
  out.wait_minutes.reserve(accounted);
  out.replicated_titles = placement.replicated;
  out.tail_slots_total = tail_slots_total;
  out.broadcast_latency_min = d1;
  out.regions.reserve(n);
  for (std::size_t g = 0; g < n; ++g) {
    auto& ledger = ledgers[g];
    ledger.report.rerouted_in = rerouted_in[g];
    const auto& r = out.regions.emplace_back(std::move(ledger.report));
    out.arrivals += r.arrivals;
    out.served_local += r.served_local;
    out.rerouted += r.rerouted_out;
    out.rejected += r.rejected;
    out.link_mbits += r.link_mbits;
    out.wait_minutes.merge(r.wait_minutes);
    if (config.sink != nullptr) {
      obs::publish_drop_metrics(*ledger.sink);
      config.sink->merge_from(*ledger.sink);
    }
  }
  return out;
}

sim::Replicated<FederationReport> simulate_federation_replicated(
    const Topology& topology, const FederationConfig& config, std::size_t reps,
    util::TaskPool* pool) {
  if (reps < 1) {
    throw std::invalid_argument(
        "metro federation needs at least one replication");
  }
  // Each replication records straight into config.sink: a per-replication
  // shard would re-record its spans in start order on the fold and so
  // reorder the export.
  return sim::replicate<FederationReport>(
      config.seed, reps, pool, config.sink, sim::PoolUse::kWithinReplication,
      [&](std::uint64_t seed, obs::Sink* sink, util::TaskPool* rep_pool) {
        FederationConfig rep_config = config;
        rep_config.seed = seed;
        rep_config.sink = sink;
        return simulate_federation(topology, rep_config, rep_pool);
      },
      [&config](FederationReport& into, const FederationReport& rep,
                std::size_t r) {
        if (r == 0) {
          into.wait_minutes.set_sample_cap(config.stats_sample_cap);
          into.regions.resize(rep.regions.size());
          for (auto& region : into.regions) {
            region.wait_minutes.set_sample_cap(config.stats_sample_cap);
          }
          into.replicated_titles = rep.replicated_titles;
          into.tail_slots_total = rep.tail_slots_total;
          into.broadcast_latency_min = rep.broadcast_latency_min;
        }
        for (std::size_t g = 0; g < rep.regions.size(); ++g) {
          auto& region = into.regions[g];
          const auto& from = rep.regions[g];
          region.arrivals += from.arrivals;
          region.served_local += from.served_local;
          region.rerouted_out += from.rerouted_out;
          region.rerouted_in += from.rerouted_in;
          region.rejected += from.rejected;
          region.link_mbits += from.link_mbits;
          region.wait_minutes.merge(from.wait_minutes);
        }
        into.arrivals += rep.arrivals;
        into.served_local += rep.served_local;
        into.rerouted += rep.rerouted;
        into.rejected += rep.rejected;
        into.link_mbits += rep.link_mbits;
        into.wait_minutes.merge(rep.wait_minutes);
      },
      &FederationReport::wait_minutes);
}

}  // namespace vodbcast::metro
