// metro_federation: metro::simulate_federation over four regional head ends
// on a 2-worker util::TaskPool.
//
// The traced run replays the federation's four phases from outside with
// the same public calls — PlacementSolver::solve, one RequestGenerator per
// region on the pool, the serial k-way merge into Router::route, per-region
// accounting on the pool and the ordered fold — and must reproduce the
// clean report exactly. Layer times on the calling thread (placement, gen,
// merge, route, account, fold) tile the run; workload, sim.stats and
// util.pool times are summed over the pool's workers.
#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "campaign.hpp"
#include "metro/federation.hpp"
#include "schemes/skyscraper.hpp"
#include "util/rng.hpp"
#include "util/task_pool.hpp"
#include "workload/request.hpp"

namespace metrobench {

namespace {

using namespace vodbcast;

constexpr unsigned kPoolWorkers = 2;
constexpr std::size_t kReplicateTop = 10;
constexpr std::size_t kStatsCap = 65536;

// 4 regions at 700/500/300/200 arrivals/min with 400/300/200/140
// channels, link capacity 32 at 0.5 min/hop. The horizon is twice the
// original 600 min (about 2M arrivals) so one campaign is long enough to
// time.
metro::Topology campaign_topology() {
  return metro::Topology({{700.0, 400}, {500.0, 300}, {300.0, 200},
                          {200.0, 140}},
                         32, core::Minutes{0.5});
}

metro::FederationConfig campaign_config(std::uint64_t seed) {
  metro::FederationConfig config;
  config.catalog_size = 100;
  config.replicate_top = kReplicateTop;
  config.horizon = core::Minutes{1200.0};
  config.seed = seed;
  config.stats_sample_cap = kStatsCap;
  return config;
}

std::string digest(const metro::FederationReport& r) {
  Digest d;
  d.add(r.arrivals)
      .add(r.served_local)
      .add(r.rerouted)
      .add(r.rejected)
      .add(r.link_mbits)
      .add(r.wait_minutes)
      .add(static_cast<std::uint64_t>(r.replicated_titles))
      .add(static_cast<std::uint64_t>(r.tail_slots_total))
      .add(r.broadcast_latency_min);
  for (const auto& region : r.regions) {
    d.add(region.arrivals)
        .add(region.served_local)
        .add(region.rerouted_out)
        .add(region.rerouted_in)
        .add(region.rejected)
        .add(region.link_mbits)
        .add(region.wait_minutes);
  }
  return d.hex();
}

/// Broadcast tune wait: time to the next segment-1 repetition boundary.
double tune_wait(double t, double d1) {
  const double into = std::fmod(t, d1);
  return into == 0.0 ? 0.0 : d1 - into;
}

class FederationCampaign final : public Campaign {
 public:
  explicit FederationCampaign(std::uint64_t seed)
      : topology_(campaign_topology()),
        config_(campaign_config(seed)),
        solver_(config_.catalog_size, config_.zipf_theta),
        pool_(kPoolWorkers) {
    const schemes::SkyscraperScheme sb(config_.sb_width);
    const auto evaluation = sb.evaluate(schemes::DesignInput{
        core::MbitPerSec{config_.video.display_rate.v *
                         config_.sb_channels_per_title},
        1, config_.video});
    if (!evaluation.has_value()) {
      throw std::runtime_error("replicated-head SB design is infeasible");
    }
    d1_ = evaluation->metrics.access_latency.v;
  }

  [[nodiscard]] unsigned threads() const override {
    return 1 + pool_.thread_count();
  }

  Outcome run() override {
    Outcome out;
    const std::int64_t t0 = now_ns();
    const auto report = metro::simulate_federation(topology_, config_, &pool_);
    out.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
    check(report, out);
    return out;
  }

  void cross_check(Outcome& outcome) override {
    const auto serial =
        metro::simulate_federation(topology_, config_, nullptr);
    if (digest(serial) != outcome.digest) {
      outcome.fail_all("the 2-worker report differs from the serial report");
    }
  }

  Traced run_traced(const Outcome& clean, Ledger& ledger) override {
    Traced traced;
    const std::size_t n = topology_.size();
    const std::int64_t t0 = now_ns();

    metro::Placement placement;
    {
      const Ledger::Scope scope(ledger, Layer::kPlacement);
      placement = solver_.solve(topology_, config_.replicate_top);
    }
    std::vector<int> tail_slots(n, 0);
    int tail_slots_total = 0;
    const int head_channels = static_cast<int>(placement.replicated) *
                              config_.sb_channels_per_title;
    for (std::size_t r = 0; r < n; ++r) {
      tail_slots[r] = std::max(0, topology_.region(r).channels - head_channels);
      tail_slots_total += tail_slots[r];
    }

    util::SplitMix64 seed_stream(config_.seed);
    std::vector<std::uint64_t> seeds(n);
    for (auto& seed : seeds) {
      seed = seed_stream.next();
    }
    // Per-slot worker timings, outside the ledger (it is single-threaded):
    // slot g is written only by task g.
    std::vector<std::int64_t> gen_ns(n, 0);
    std::vector<std::vector<workload::Request>> streams(n);
    {
      const Ledger::Scope scope(ledger, Layer::kGen);
      util::parallel_for_each(&pool_, n, [&](std::size_t g) {
        const std::int64_t task0 = now_ns();
        workload::RequestGenerator gen(solver_.popularity(),
                                       topology_.region(g).arrivals_per_minute,
                                       util::Rng(seeds[g]));
        streams[g] = gen.generate_until(config_.horizon);
        gen_ns[g] = now_ns() - task0;
      });
    }
    std::uint64_t requests = 0;
    std::uint64_t request_bytes = 0;
    for (const auto& stream : streams) {
      requests += stream.size();
      request_bytes += stream.capacity() * sizeof(workload::Request);
    }

    metro::RouterConfig router_config;
    router_config.video = config_.video;
    router_config.patience = config_.patience;
    router_config.spill_wait = config_.spill_wait;
    router_config.fault_plans = &config_.fault_plans;
    std::vector<std::vector<metro::RouteDecision>> per_origin(n);
    std::vector<std::uint64_t> rerouted_in(n, 0);
    {
      const Ledger::Scope merge_scope(ledger, Layer::kMerge);
      metro::Router router(topology_, placement, tail_slots, router_config);
      std::vector<std::size_t> cursor(n, 0);
      std::uint64_t session = 0;
      for (;;) {
        std::size_t next = n;
        double best = 0.0;
        for (std::size_t g = 0; g < n; ++g) {
          if (cursor[g] >= streams[g].size()) {
            continue;
          }
          const double at = streams[g][cursor[g]].arrival.v;
          if (next == n || at < best) {
            next = g;
            best = at;
          }
        }
        if (next == n) {
          break;
        }
        const auto& req = streams[next][cursor[next]++];
        ledger.set_session(++session);
        metro::RouteDecision d;
        {
          const Ledger::Scope scope(ledger, Layer::kRoute);
          d = router.route(metro::Arrival{req.arrival, req.video,
                                          static_cast<std::uint32_t>(next)});
        }
        if (d.kind == metro::RouteKind::kRerouted) {
          ++rerouted_in[d.served_by];
        }
        per_origin[next].push_back(d);
      }
      ledger.set_session(Ledger::kNoSession);
    }

    std::vector<metro::RegionReport> regions(n);
    std::vector<std::int64_t> stats_ns(n, 0);
    std::vector<std::int64_t> account_task_ns(n, 0);
    {
      const Ledger::Scope scope(ledger, Layer::kAccount);
      util::parallel_for_each(&pool_, n, [&](std::size_t g) {
        const std::int64_t task0 = now_ns();
        auto& report = regions[g];
        report.wait_minutes.set_sample_cap(config_.stats_sample_cap);
        report.rerouted_in = rerouted_in[g];
        for (const auto& d : per_origin[g]) {
          double wait = 0.0;
          switch (d.kind) {
            case metro::RouteKind::kRejected:
              wait = config_.reject_penalty.v;
              ++report.rejected;
              break;
            case metro::RouteKind::kLocal:
            case metro::RouteKind::kRerouted:
              wait = d.transit_min +
                     (d.broadcast
                          ? tune_wait(d.arrival_min + d.transit_min, d1_)
                          : d.queue_wait_min);
              if (d.kind == metro::RouteKind::kLocal) {
                ++report.served_local;
              } else {
                ++report.rerouted_out;
              }
              break;
          }
          ++report.arrivals;
          report.link_mbits += d.link_mbits;
          const std::int64_t s0 = now_ns();
          report.wait_minutes.add(wait);
          stats_ns[g] += now_ns() - s0;
        }
        account_task_ns[g] = now_ns() - task0;
      });
    }

    metro::FederationReport out_report;
    {
      const Ledger::Scope scope(ledger, Layer::kFold);
      out_report.regions = std::move(regions);
      out_report.wait_minutes.set_sample_cap(config_.stats_sample_cap);
      out_report.replicated_titles = placement.replicated;
      out_report.tail_slots_total = tail_slots_total;
      out_report.broadcast_latency_min = d1_;
      for (const auto& r : out_report.regions) {
        out_report.arrivals += r.arrivals;
        out_report.served_local += r.served_local;
        out_report.rerouted += r.rerouted_out;
        out_report.rejected += r.rejected;
        out_report.link_mbits += r.link_mbits;
        out_report.wait_minutes.merge(r.wait_minutes);
      }
    }
    Outcome& out = traced.outcome;
    out.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
    check(out_report, out);
    if (out.digest != clean.digest) {
      out.fail_all("traced replay report differs from the clean run");
    }

    const auto sum_s = [](const std::vector<std::int64_t>& ns) {
      std::int64_t total = 0;
      for (const auto v : ns) {
        total += v;
      }
      return static_cast<double>(total) * 1e-9;
    };
    auto& l = traced.layers;
    l["workload.requests"] = static_cast<double>(requests);
    l["workload.busy_s"] = sum_s(gen_ns);
    l["workload.request_bytes"] = static_cast<double>(request_bytes);
    double folded = static_cast<double>(out_report.wait_minutes.samples_folded());
    double retained =
        static_cast<double>(out_report.wait_minutes.retained_bytes());
    for (const auto& r : out_report.regions) {
      folded += static_cast<double>(r.wait_minutes.samples_folded());
      retained += static_cast<double>(r.wait_minutes.retained_bytes());
    }
    l["sim.stats.samples"] = static_cast<double>(out_report.arrivals);
    l["sim.stats.folded"] = folded;
    l["sim.stats.busy_s"] =
        sum_s(stats_ns) - static_cast<double>(out_report.arrivals) *
                              static_cast<double>(ledger.clock_cost_ns()) *
                              1e-9;
    l["sim.stats.retained_bytes"] = retained;
    l["metro.route_calls"] = static_cast<double>(ledger.calls(Layer::kRoute));
    l["metro.rerouted"] = static_cast<double>(out_report.rerouted);
    l["metro.rejected"] = static_cast<double>(out_report.rejected);
    l["metro.placement_s"] = ledger.busy_s(Layer::kPlacement);
    l["metro.gen_s"] = ledger.busy_s(Layer::kGen);
    l["metro.merge_s"] = ledger.busy_s(Layer::kMerge);
    l["metro.route_s"] = ledger.busy_s(Layer::kRoute);
    l["metro.account_s"] = ledger.busy_s(Layer::kAccount);
    l["metro.fold_s"] = ledger.busy_s(Layer::kFold);
    l["util.pool.tasks"] = static_cast<double>(2 * n);
    l["util.pool.busy_s"] = sum_s(gen_ns) + sum_s(account_task_ns);
    l["trace.overhead_s"] = out.wall_s - clean.wall_s;
    l["trace.unattributed_s"] = out.wall_s - ledger.total_busy_s();
    return traced;
  }

 private:
  /// Conservation, metro-wide and per region: every arrival is served
  /// locally, rerouted or rejected.
  void check(const metro::FederationReport& report, Outcome& out) const {
    out.arrivals = report.arrivals;
    out.digest = digest(report);
    if (report.served_local + report.rerouted + report.rejected !=
        report.arrivals) {
      out.fail_all("served_local + rerouted + rejected != arrivals");
    }
    for (const auto& r : report.regions) {
      if (r.served_local + r.rerouted_out + r.rejected != r.arrivals) {
        out.fail_all("a region's served_local + rerouted + rejected != arrivals");
      }
    }
  }

  metro::Topology topology_;
  metro::FederationConfig config_;
  metro::PlacementSolver solver_;
  util::TaskPool pool_;
  double d1_ = 0.0;
};

}  // namespace

std::unique_ptr<Campaign> make_metro_federation(std::uint64_t seed) {
  return std::make_unique<FederationCampaign>(seed);
}

}  // namespace metrobench
