// Extension bench: multi-head-end federation — replication degree x region
// count at metropolitan scale.
//
// The paper designs one head end; a metropolitan operator runs several and
// must decide how many of the hottest titles to replicate everywhere. This
// bench sweeps that knob through metro::simulate_federation: replicating
// the Zipf head moves demand onto the bounded-wait broadcast tier, so
// rejections and the penalized mean wait fall as the replication degree
// grows. With one region dark, the overflow router spills its broadcast
// demand to the cheapest neighbor instead of dropping it — a reroute-rate
// jump, not a rejection jump, whenever the title has a second copy.
//
// Full size: 4 regions at 700/500/300/200 arrivals/min over 600 min
// (~1.02M Poisson arrivals); a second sweep holds the metro demand and
// channel budget constant while splitting them over 2/4/8 head ends, and a
// third times the r=10 campaign on pools of 1, 2 and 4 workers (the wall
// rungs; the calling thread routes and then helps, so a pool of k workers
// runs k + 1 threads).
// VODBCAST_BENCH_QUICK=1 scales the arrival rates down for CI smoke; the
// >=1M gate applies only to the full-size run. Conservation and the
// serial-vs-pool bit-identity gates apply at every size.
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "fault/plan.hpp"
#include "metro/federation.hpp"
#include "metro/topology.hpp"
#include "util/task_pool.hpp"
#include "util/text_table.hpp"

#include "harness/harness.hpp"

namespace {

struct CasePoint {
  vodbcast::metro::FederationReport report;
  double wall_p50_ns = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  vodbcast::bench::Session session("ext_metro_federation", argc, argv);
  using namespace vodbcast;

  const bool quick = session.quick();
  // 1700/min over 600 min ~= 1.02M Poisson arrivals at full size.
  const double scale = quick ? 0.05 : 1.0;
  const core::Minutes horizon{600.0};

  std::puts("=== Extension: metro federation — replication degree x region"
            " count ===");
  std::printf("(catalog 100, SB K=6 W=52 per replicated title, %.0f"
              " arrivals/min over %.0f min%s)\n\n",
              1700.0 * scale, horizon.v, quick ? ", QUICK smoke" : "");

  const metro::Topology four_regions({{700.0 * scale, 400},
                                      {500.0 * scale, 300},
                                      {300.0 * scale, 200},
                                      {200.0 * scale, 150}},
                                     32, core::Minutes{0.5});
  // Same metro-wide demand and channel budget, split over N head ends.
  const auto even_topology = [&](std::size_t n) {
    std::vector<metro::RegionSpec> regions(n);
    for (auto& region : regions) {
      region.arrivals_per_minute = 1700.0 * scale / static_cast<double>(n);
      region.channels = static_cast<int>(1040 / n);
    }
    return metro::Topology(std::move(regions), 32, core::Minutes{0.5});
  };

  const auto make_config = [&](std::size_t replicate_top, bool dark0,
                               std::size_t n_regions) {
    metro::FederationConfig config;
    config.catalog_size = 100;
    config.replicate_top = replicate_top;
    config.horizon = horizon;
    config.seed = 20260807;
    config.stats_sample_cap = 65536;  // streaming stats at 1M arrivals
    if (dark0) {
      for (std::size_t r = 0; r < n_regions; ++r) {
        std::vector<fault::Episode> episodes;
        if (r == 0) {
          episodes.push_back(fault::Episode{
              fault::EpisodeKind::kChannelOutage, 0.0, horizon.v, -1, {}});
        }
        config.fault_plans.push_back(
            fault::Plan(std::move(episodes), r + 1));
      }
    }
    return config;
  };

  // Manual timing (Session clocks + record_case) so the same wall samples
  // that land in BENCH_ext_metro_federation.json also back the table below.
  // No sink inside the timed region — clean numbers.
  const auto run_case = [&](const std::string& name,
                            const metro::Topology& topology,
                            const metro::FederationConfig& config,
                            util::TaskPool* pool) {
    for (int i = 0; i < session.default_warmup(); ++i) {
      (void)metro::simulate_federation(topology, config, pool);
    }
    const int reps = session.default_reps();
    std::vector<double> wall;
    std::vector<double> cpu;
    CasePoint point;
    for (int i = 0; i < reps; ++i) {
      const double w0 = bench::Session::wall_now_ns();
      const double c0 = bench::Session::cpu_now_ns();
      point.report = metro::simulate_federation(topology, config, pool);
      cpu.push_back(bench::Session::cpu_now_ns() - c0);
      wall.push_back(bench::Session::wall_now_ns() - w0);
    }
    obs::BenchCaseResult result;
    result.name = name;
    result.reps = reps;
    result.warmup = session.default_warmup();
    result.wall_ns = obs::TimingStats::from_samples(std::move(wall));
    result.cpu_ns = obs::TimingStats::from_samples(std::move(cpu));
    point.wall_p50_ns = result.wall_ns.p50;
    session.record_case(std::move(result));
    return point;
  };

  util::TextTable table({"case", "N", "top-R", "arrivals", "local %",
                         "reroute %", "reject %", "mean wait", "link Gbit",
                         "wall p50 (ms)"});
  bool ok = true;
  const auto add_row = [&](const std::string& name, std::size_t n,
                           std::size_t top, const CasePoint& point) {
    const auto& r = point.report;
    table.add_row(
        {name, util::TextTable::num(static_cast<long long>(n)),
         util::TextTable::num(static_cast<long long>(top)),
         util::TextTable::num(static_cast<long long>(r.arrivals)),
         util::TextTable::num(
             100.0 * static_cast<double>(r.served_local) /
                 static_cast<double>(r.arrivals), 2),
         util::TextTable::num(100.0 * r.reroute_rate(), 2),
         util::TextTable::num(100.0 * r.rejection_rate(), 2),
         util::TextTable::num(r.mean_penalized_wait_min(), 4),
         util::TextTable::num(r.link_mbits / 1000.0, 1),
         util::TextTable::num(point.wall_p50_ns / 1e6, 1)});
    if (r.served_local + r.rerouted + r.rejected != r.arrivals) {
      std::printf("FAIL: %s conservation broken (%llu + %llu + %llu !="
                  " %llu)\n", name.c_str(),
                  static_cast<unsigned long long>(r.served_local),
                  static_cast<unsigned long long>(r.rerouted),
                  static_cast<unsigned long long>(r.rejected),
                  static_cast<unsigned long long>(r.arrivals));
      ok = false;
    }
  };

  // Sweep 1: replication degree, all regions up vs region 0 dark.
  const std::size_t degrees[] = {0, 5, 10, 20};
  std::vector<CasePoint> normal;
  std::vector<CasePoint> dark;
  for (const auto top : degrees) {
    normal.push_back(run_case("federation/r" + std::to_string(top),
                              four_regions, make_config(top, false, 4),
                              session.pool()));
    add_row("4 regions, r=" + std::to_string(top), 4, top, normal.back());
  }
  for (const auto top : degrees) {
    dark.push_back(run_case("federation/r" + std::to_string(top) + "_dark",
                            four_regions, make_config(top, true, 4),
                            session.pool()));
    add_row("region 0 dark, r=" + std::to_string(top), 4, top, dark.back());
  }

  // Sweep 2: same metro demand over 2/4/8 head ends at replication 10.
  for (const std::size_t n : {2UL, 4UL, 8UL}) {
    const auto point = run_case("federation/n" + std::to_string(n) + "_r10",
                                even_topology(n), make_config(10, false, n),
                                session.pool());
    add_row("even split, N=" + std::to_string(n), n, 10, point);
  }

  // Sweep 3: wall rungs of the r=10 campaign, serial and on pools of 1, 2
  // and 4 workers; every rung must give the serial report.
  const auto baseline = run_case("federation/r10_serial", four_regions,
                                 make_config(10, false, 4), nullptr);
  add_row("r=10, serial", 4, 10, baseline);
  std::string rungs =
      "serial " + util::TextTable::num(baseline.wall_p50_ns / 1e6, 1) + " ms";
  for (const unsigned workers : {1U, 2U, 4U}) {
    util::TaskPool pool(workers);
    const std::string tag = "pool " + std::to_string(workers);
    const auto point =
        run_case("federation/r10_pool" + std::to_string(workers),
                 four_regions, make_config(10, false, 4), &pool);
    add_row("r=10, " + tag, 4, 10, point);
    rungs += ", " + tag + " " +
             util::TextTable::num(point.wall_p50_ns / 1e6, 1) + " ms (" +
             util::TextTable::num(baseline.wall_p50_ns / point.wall_p50_ns,
                                  2) +
             "x)";
    if (point.report.wait_minutes.samples() !=
            baseline.report.wait_minutes.samples() ||
        point.report.served_local != baseline.report.served_local ||
        point.report.rerouted != baseline.report.rerouted ||
        point.report.rejected != baseline.report.rejected) {
      std::printf("FAIL: the r=10 report on %s differs from the serial one\n",
                  tag.c_str());
      ok = false;
    }
  }
  std::puts(table.render().c_str());
  std::printf("wall rungs, r=10    : %s on %u host threads\n", rungs.c_str(),
              util::TaskPool::hardware_threads());

  // Headline gauges: mean penalized wait and reroute rate vs replication
  // degree, with and without one region dark.
  for (std::size_t i = 0; i < std::size(degrees); ++i) {
    const auto tag = std::to_string(degrees[i]);
    session.metrics().gauge("federation.mean_wait.r" + tag)
        .set(normal[i].report.mean_penalized_wait_min());
    session.metrics().gauge("federation.reroute_rate.r" + tag)
        .set(normal[i].report.reroute_rate());
    session.metrics().gauge("federation.mean_wait.r" + tag + ".dark")
        .set(dark[i].report.mean_penalized_wait_min());
    session.metrics().gauge("federation.reroute_rate.r" + tag + ".dark")
        .set(dark[i].report.reroute_rate());
  }
  session.metrics().gauge("federation.arrivals")
      .set(static_cast<double>(normal[2].report.arrivals));

  std::printf("mean wait vs r      : ");
  for (std::size_t i = 0; i < std::size(degrees); ++i) {
    std::printf("r=%zu %.3f%s", degrees[i],
                normal[i].report.mean_penalized_wait_min(),
                i + 1 < std::size(degrees) ? ", " : " min\n");
  }
  std::printf("reroute, r=10       : %.4f%% up -> %.4f%% region 0 dark\n",
              100.0 * normal[2].report.reroute_rate(),
              100.0 * dark[2].report.reroute_rate());

  // Evidence run, untimed: the session sink captures the metro.* families
  // and region_session/reroute spans for the committed result's footer.
  {
    auto evidence_config = make_config(10, false, 4);
    evidence_config.sink = &session.sink();
    (void)metro::simulate_federation(four_regions, evidence_config,
                                     session.pool());
  }

  // Gate: the slot/merge contract — one region per TaskPool slot must give
  // the serial answer bit for bit (applies at every size).
  {
    auto identity_config = make_config(10, true, 4);
    identity_config.horizon = core::Minutes{60.0};
    const auto serial =
        metro::simulate_federation(four_regions, identity_config, nullptr);
    util::TaskPool pool(4);
    const auto pooled =
        metro::simulate_federation(four_regions, identity_config, &pool);
    if (serial.wait_minutes.samples() != pooled.wait_minutes.samples() ||
        serial.served_local != pooled.served_local ||
        serial.rerouted != pooled.rerouted ||
        serial.rejected != pooled.rejected ||
        serial.link_mbits != pooled.link_mbits) {
      std::puts("FAIL: serial vs TaskPool(4) federation reports differ");
      ok = false;
    }
  }

  // Gate: replicating more of the head must not raise the rejection rate.
  for (std::size_t i = 1; i < std::size(degrees); ++i) {
    if (normal[i].report.rejected > normal[i - 1].report.rejected) {
      std::printf("FAIL: rejections rose from r=%zu to r=%zu\n",
                  degrees[i - 1], degrees[i]);
      ok = false;
    }
  }
  // Gate: a dark region must spill, not silently vanish — at r=10 the
  // reroute rate with region 0 dark must exceed the all-up rate.
  if (dark[2].report.reroute_rate() <= normal[2].report.reroute_rate()) {
    std::puts("FAIL: region 0 dark did not raise the reroute rate");
    ok = false;
  }
  if (!quick && normal[2].report.arrivals < 1000000) {
    std::printf("FAIL: campaign saw %llu arrivals (< 1M)\n",
                static_cast<unsigned long long>(normal[2].report.arrivals));
    ok = false;
  }

  std::puts(ok ? "\nReplicating the Zipf head trades channels for bounded"
                 " waits metro-wide;\nthe overflow router turns a dark head"
                 " end into reroutes, not rejections."
               : "\nWARNING: metro federation acceptance gates failed");
  return ok ? 0 : 1;
}
