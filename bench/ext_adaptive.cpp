// Extension bench: the adaptive control plane (src/ctrl) against the frozen
// hybrid split on a non-stationary workload. The scenario is the popularity
// flip: halfway through the run the Zipf rank->title permutation is re-drawn,
// so the frozen allocation keeps broadcasting yesterday's hot set while the
// controller (EWMA estimator + hysteresis allocator + drain protocol) chases
// the new one. The headline numbers: epochs to re-converge, demand-weighted
// mean wait adaptive vs frozen on the same seeded stream, and the degraded
// worst-case latency under an overloaded budget. A replicated case exercises
// the serial-vs-parallel bit-identity contract through the session pool.
#include <cstdio>

#include "batching/queue_policies.hpp"
#include "core/units.hpp"
#include "core/video.hpp"
#include "ctrl/adaptive.hpp"

#include "harness/harness.hpp"

namespace {

vodbcast::ctrl::AdaptiveConfig scenario() {
  using namespace vodbcast;
  ctrl::AdaptiveConfig config;
  config.total_bandwidth = core::MbitPerSec{120.0};
  config.catalog_size = 50;
  config.hot_titles = 10;
  config.broadcast_channels_per_video = 6;
  config.video = core::VideoParams{core::Minutes{60.0}, core::MbitPerSec{1.5}};
  config.arrivals_per_minute = 6.0;
  config.horizon = core::Minutes{1200.0};
  config.epoch = core::Minutes{60.0};
  config.half_life = core::Minutes{60.0};
  config.min_tail_channels = 8;
  config.flip_at = core::Minutes{600.0};
  config.seed = 11;
  return config;
}

/// Demand-weighted mean wait with unserved stragglers charged the full
/// remaining horizon, so a frozen split cannot look good by starving its
/// tail queue (same penalty the tests use).
double penalized_mean(const vodbcast::ctrl::AdaptiveReport& report,
                      double horizon) {
  const double n = static_cast<double>(report.wait_minutes.count() +
                                       report.unserved);
  if (n == 0.0) {
    return 0.0;
  }
  const double served_total =
      report.wait_minutes.empty()
          ? 0.0
          : report.wait_minutes.mean() *
                static_cast<double>(report.wait_minutes.count());
  return (served_total + static_cast<double>(report.unserved) * horizon) / n;
}

void print_report(const char* label,
                  const vodbcast::ctrl::AdaptiveReport& report,
                  double horizon) {
  std::printf("%-14s mean wait %7.3f min (penalized %7.3f), "
              "hot/tail/unserved %llu/%llu/%llu\n",
              label, report.mean_wait_minutes(),
              penalized_mean(report, horizon),
              static_cast<unsigned long long>(report.served_hot),
              static_cast<unsigned long long>(report.served_tail),
              static_cast<unsigned long long>(report.unserved));
  std::printf("%-14s epochs %llu, reallocs %llu, promote/demote/drained "
              "%llu/%llu/%llu, converged after flip: %lld epoch(s)\n",
              "", static_cast<unsigned long long>(report.epochs),
              static_cast<unsigned long long>(report.reallocs),
              static_cast<unsigned long long>(report.promotions),
              static_cast<unsigned long long>(report.demotions),
              static_cast<unsigned long long>(report.drains_completed),
              static_cast<long long>(report.converged_epochs_after_flip));
}

}  // namespace

int main(int argc, char** argv) {
  vodbcast::bench::Session session("ext_adaptive", argc, argv);
  using namespace vodbcast;
  std::puts("=== Extension: adaptive control plane vs frozen hybrid ===\n");

  const batching::MqlPolicy policy;
  const auto base = scenario();

  // Frozen baseline: the prior-rank allocation never moves, so after the
  // flip it keeps broadcasting the old hot set into collapsing demand.
  auto frozen_cfg = base;
  frozen_cfg.epoch = core::Minutes{0.0};
  const auto frozen = session.run("frozen_flip", [&] {
    return ctrl::simulate_adaptive(policy, frozen_cfg);
  });

  // The controller on the identical seeded stream.
  const auto adaptive = session.run("adaptive_flip", [&] {
    return ctrl::simulate_adaptive(policy, base);
  });

  // Stationary demand: same knobs, no flip — measures controller overhead
  // and flap resistance when there is nothing to chase.
  auto calm_cfg = base;
  calm_cfg.flip_at = core::Minutes{-1.0};
  const auto calm = session.run("adaptive_stationary", [&] {
    return ctrl::simulate_adaptive(policy, calm_cfg);
  });

  // Overload: a budget too small for the requested hot set. The allocator
  // degrades (fewer channels per title, then fewer titles) instead of
  // rejecting; D1 rises but stays bounded.
  auto overload_cfg = base;
  overload_cfg.total_bandwidth = core::MbitPerSec{30.0};
  overload_cfg.min_tail_channels = 2;
  const auto degraded = session.run("adaptive_overload", [&] {
    return ctrl::simulate_adaptive(policy, overload_cfg);
  });

  // Replications through the session pool: the merged report is bit-identical
  // at any thread count (tests/test_ctrl.cpp asserts it); here it prices the
  // parallel sweep and reports the CI over replication means.
  const auto replicated = session.run("adaptive_replicated", [&] {
    return ctrl::simulate_adaptive_replicated(policy, base, 4,
                                              session.pool());
  });

  const double horizon = base.horizon.v;
  std::printf("scenario: %.0f Mb/s, catalog %zu, hot %zu x %d ch, "
              "flip at %.0f min, horizon %.0f min\n\n",
              base.total_bandwidth.v, base.catalog_size, base.hot_titles,
              base.broadcast_channels_per_video, base.flip_at.v, horizon);
  print_report("frozen", frozen, horizon);
  print_report("adaptive", adaptive, horizon);
  print_report("stationary", calm, horizon);
  print_report("overload", degraded, horizon);

  std::printf("\nadaptive D1 %.3f min%s; overload D1 %.3f min "
              "(degraded=%s, %d ch/title)\n",
              adaptive.broadcast_worst_latency.v,
              adaptive.degraded ? " (degraded)" : "",
              degraded.broadcast_worst_latency.v,
              degraded.degraded ? "yes" : "no",
              degraded.channels_per_video);
  std::printf("replicated x%zu (threads=%d): mean wait %.3f +- %.3f min\n",
              replicated.replications, session.threads(),
              replicated.merged.mean_wait_minutes(),
              replicated.mean_ci95);

  const bool adapted_better =
      penalized_mean(adaptive, horizon) < penalized_mean(frozen, horizon);
  std::printf("adaptivity: %s (re-converged after %lld epoch(s))\n",
              adapted_better ? "adaptive beats frozen on the flipped stream"
                             : "WARNING: adaptive did not beat frozen",
              static_cast<long long>(adaptive.converged_epochs_after_flip));
  return 0;
}
