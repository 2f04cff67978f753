// vodbcast — command-line front end for the library.
//
//   vodbcast design   --scheme SB:W=52 --bandwidth 600 [--videos 10]
//                     [--duration 120] [--rate 1.5]
//   vodbcast table    <1|2> [--bandwidth 600]
//   vodbcast figure   <5|6|7|8> [--csv]
//   vodbcast plan     --scheme SB:W=52 --bandwidth 300 --phase 4
//   vodbcast simulate --scheme SB:W=52 --bandwidth 300 [--horizon 240]
//                     [--arrivals 4] [--seed 42] [--reps R] [--threads T]
//                     [--fault-plan outages=2,bursts=1,...] [--fault-seed N]
//                     [--fault-retries 1]
//                     [--metrics-out m.json] [--metrics-format json|openmetrics]
//                     [--trace-out run.json|run.jsonl] [--trace-limit N]
//                     [--spans-out spans.jsonl] [--spans-limit N]
//                     [--spans-format jsonl|chrome|folded]
//                     [--series-out s.jsonl] [--series-interval MIN]
//                     [--series-limit N]
//   vodbcast width    --bandwidth 400 --latency 0.25
//   vodbcast hybrid   [--hot 10] [--channels 6] [--bandwidth 600]
//                     [--adaptive] [--epoch-minutes 60] [--half-life 60]
//                     [--promote-ratio 1.2] [--demote-ratio 0.8]
//                     [--min-tail 1] [--popularity-flip] [--flip-at MIN]
//                     [--fault-plan ...] [--fault-seed N] [--fault-retries 1]
//                     [--seed 11] [--reps R] [--threads T]
//                     [--metrics-out ...] [--spans-out ...]
//                     [--series-out ...]
//   vodbcast metro    [--regions 200,150,100,50] [--channels 120]
//                     [--replicate-top 10] [--link-capacity 32]
//                     [--link-latency 0.5] [--catalog 100] [--theta 0.271]
//                     [--sb-channels 6] [--width 52] [--horizon 600]
//                     [--patience 15] [--spill-wait 5] [--reject-penalty 30]
//                     [--dark R] [--fault-plan outages=2,...] [--fault-seed N]
//                     [--seed 1] [--reps R] [--threads T] [--stats-cap N]
//                     [--metrics-out ...] [--spans-out ...]
//   vodbcast help
//
// Each subcommand accepts only the flags it reads: anything else exits 2
// with a message naming the flag. --trace-out and --trace-limit belong to
// simulate alone: it is the one engine that records trace events; hybrid
// and metro record spans (--spans-out) only.
#include <cstdio>
#include <initializer_list>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/experiments.hpp"
#include "batching/hybrid.hpp"
#include "channel/timetable.hpp"
#include "client/reception_plan.hpp"
#include "ctrl/adaptive.hpp"
#include "fault/injector.hpp"
#include "metro/federation.hpp"
#include "obs/sampler.hpp"
#include "obs/sink.hpp"
#include "schemes/registry.hpp"
#include "schemes/skyscraper.hpp"
#include "sim/simulator.hpp"
#include "util/args.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"
#include "util/task_pool.hpp"

namespace {

using namespace vodbcast;

void write_file(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  VB_EXPECTS_MSG(f != nullptr, "cannot open output file: " + path);
  const bool written =
      std::fwrite(content.data(), 1, content.size(), f) == content.size();
  // fclose flushes the stdio buffer, so a full device often fails only here.
  if (std::fclose(f) != 0 || !written) {
    throw std::runtime_error("cannot write output file: " + path);
  }
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Dumps the sink's collected state per the --metrics-out/--trace-out/
/// --spans-out flags. --metrics-format selects json (default) or
/// openmetrics for the metrics dump; openmetrics without --metrics-out
/// prints the exposition to stdout (pipe it into tools/metrics_check). A
/// ".jsonl" trace path selects JSONL; anything else gets Chrome trace-event
/// JSON for chrome://tracing / Perfetto. Spans follow the same suffix rule
/// unless --spans-format forces jsonl, chrome, or folded (flamegraph.pl /
/// speedscope input; analyze JSONL spans with tools/trace_analyze).
void export_observability(const util::ArgParser& args, obs::Sink& sink,
                          const obs::Sampler* sampler = nullptr) {
  obs::publish_drop_metrics(sink, sampler);
  const std::string format = args.get_string("metrics-format", "json");
  if (format != "json" && format != "openmetrics") {
    throw std::invalid_argument(
        "--metrics-format must be 'json' or 'openmetrics', got '" + format +
        "'");
  }
  const std::string rendered = format == "openmetrics"
                                   ? sink.metrics.to_openmetrics()
                                   : sink.metrics.to_json() + "\n";
  if (const auto path = args.get("metrics-out")) {
    write_file(*path, rendered);
    std::fprintf(stderr, "metrics written to %s (%s)\n", path->c_str(),
                 format.c_str());
  } else if (args.has("metrics-format")) {
    std::fputs(rendered.c_str(), stdout);
  }
  if (const auto path = args.get("trace-out")) {
    const bool jsonl = ends_with(*path, ".jsonl");
    write_file(*path, jsonl ? sink.trace.to_jsonl()
                            : sink.trace.to_chrome_trace());
    std::fprintf(stderr, "trace written to %s (%zu events, %llu dropped)\n",
                 path->c_str(), sink.trace.size(),
                 static_cast<unsigned long long>(sink.trace.dropped()));
  }
  if (const auto path = args.get("spans-out")) {
    const std::string span_format = args.get_string(
        "spans-format", ends_with(*path, ".jsonl") ? "jsonl" : "chrome");
    std::string span_text;
    if (span_format == "jsonl") {
      span_text = sink.spans.to_jsonl();
    } else if (span_format == "chrome") {
      span_text = sink.spans.to_chrome_trace();
    } else if (span_format == "folded") {
      span_text = sink.spans.to_folded();
    } else {
      throw std::invalid_argument(
          "--spans-format must be 'jsonl', 'chrome' or 'folded', got '" +
          span_format + "'");
    }
    write_file(*path, span_text);
    std::fprintf(stderr, "spans written to %s (%s, %zu spans, %llu dropped)\n",
                 path->c_str(), span_format.c_str(), sink.spans.size(),
                 static_cast<unsigned long long>(sink.spans.dropped()));
  }
}

/// True if the run should carry a sink at all.
bool wants_observability(const util::ArgParser& args) {
  return args.has("metrics-out") || args.has("trace-out") ||
         args.has("metrics-format") || args.has("spans-out");
}

/// Ring capacity for the Sink's span tracer (--spans-limit).
std::size_t spans_limit(const util::ArgParser& args) {
  return static_cast<std::size_t>(args.get_uint("spans-limit", 65536));
}

/// Builds the --series-out sampler (null when the flag is absent).
std::unique_ptr<obs::Sampler> make_sampler(const util::ArgParser& args) {
  if (!args.has("series-out")) {
    return nullptr;
  }
  obs::Sampler::Options options;
  options.interval_min = args.get_double("series-interval", 1.0);
  options.max_samples = static_cast<std::size_t>(
      args.get_uint("series-limit", 4096));
  return std::make_unique<obs::Sampler>(options);
}

/// Dumps the sampler rows per --series-out (always JSONL).
void export_series(const util::ArgParser& args, const obs::Sampler* sampler) {
  if (sampler == nullptr) {
    return;
  }
  const auto path = args.get("series-out");
  VB_ASSERT(path.has_value());
  write_file(*path, sampler->to_jsonl());
  std::fprintf(stderr, "series written to %s (%zu rows, %llu dropped)\n",
               path->c_str(), sampler->size(),
               static_cast<unsigned long long>(sampler->dropped()));
}

/// Resolves --threads into a pool, or null for serial execution. Both give
/// bit-identical results everywhere a pool is accepted; the pool only
/// changes wall-clock time.
std::unique_ptr<util::TaskPool> make_pool(const util::ArgParser& args) {
  const auto threads = args.get_uint("threads", 1);
  if (threads <= 1) {
    return nullptr;
  }
  return std::make_unique<util::TaskPool>(static_cast<unsigned>(threads));
}

/// Resolves --reps: the number of seeded replications, 1 by default.
std::size_t replications(const util::ArgParser& args) {
  const auto reps = args.get_uint("reps", 1);
  if (reps < 1) {
    throw std::invalid_argument("--reps must be at least 1, got " +
                                std::to_string(reps));
  }
  return static_cast<std::size_t>(reps);
}

/// Resolves --policy to the batching tail's queue policy: 'mql' (the
/// default) or 'fcfs'.
const batching::BatchingPolicy& batching_policy(const util::ArgParser& args) {
  static const batching::MqlPolicy mql;
  static const batching::FcfsPolicy fcfs;
  const std::string name = args.get_string("policy", "mql");
  if (name == "mql") {
    return mql;
  }
  if (name == "fcfs") {
    return fcfs;
  }
  throw std::invalid_argument("--policy must be 'mql' or 'fcfs', got '" +
                              name + "'");
}

/// Builds the --fault-plan injector (null when the flag is absent). The
/// spec's horizon and channel count come from the run configuration; the
/// plan seed defaults to a value derived from the run seed (xored with a
/// constant so it never collides with the replication seed stream).
/// Exits with a usage error on a malformed spec.
std::unique_ptr<fault::Injector> make_injector(const util::ArgParser& args,
                                               double horizon_min,
                                               int channels,
                                               std::uint64_t run_seed) {
  const auto spec_text = args.get("fault-plan");
  if (!spec_text.has_value()) {
    return nullptr;
  }
  auto spec = fault::parse_plan_spec(*spec_text);
  VB_EXPECTS_MSG(spec.has_value(),
                 "malformed --fault-plan spec: " + *spec_text);
  spec->horizon_min = horizon_min;
  spec->channels = std::max(channels, 1);
  const auto seed =
      args.get_uint("fault-seed", run_seed ^ 0x9E3779B97F4A7C15ULL);
  fault::RecoveryPolicy policy;
  policy.retry_budget = static_cast<int>(args.get_int("fault-retries", 1));
  return std::make_unique<fault::Injector>(
      fault::Plan::generate(*spec, seed), policy);
}

schemes::DesignInput input_from(const util::ArgParser& args,
                                double default_bandwidth = 600.0) {
  return schemes::DesignInput{
      .server_bandwidth =
          core::MbitPerSec{args.get_double("bandwidth", default_bandwidth)},
      .num_videos = static_cast<int>(args.get_int("videos", 10)),
      .video = core::VideoParams{
          core::Minutes{args.get_double("duration", 120.0)},
          core::MbitPerSec{args.get_double("rate", 1.5)}},
  };
}

int cmd_design(const util::ArgParser& args) {
  const auto scheme = schemes::make_scheme(
      args.get_string("scheme", "SB:W=52"));
  const auto input = input_from(args);
  const auto evaluation = scheme->evaluate(input);
  if (!evaluation.has_value()) {
    std::printf("%s is infeasible at %.1f Mb/s\n", scheme->name().c_str(),
                input.server_bandwidth.v);
    return 2;
  }
  const auto& d = evaluation->design;
  const auto& m = evaluation->metrics;
  std::printf("scheme          : %s\n", scheme->name().c_str());
  std::printf("K (segments)    : %d\n", d.segments);
  std::printf("P (replicas)    : %d\n", d.replicas);
  if (d.alpha > 0.0) {
    std::printf("alpha           : %.4f\n", d.alpha);
  }
  std::printf("access latency  : %.4f min\n", m.access_latency.v);
  std::printf("client buffer   : %.1f MB\n", m.client_buffer.mbytes());
  std::printf("client disk b/w : %.2f Mb/s\n", m.client_disk_bandwidth.v);
  const auto plan = scheme->plan(input, d);
  std::printf("server streams  : %zu (peak %.1f Mb/s)\n", plan.stream_count(),
              plan.peak_aggregate_rate().v);
  return 0;
}

int cmd_table(const util::ArgParser& args) {
  VB_EXPECTS_MSG(args.positional_count() >= 2, "usage: vodbcast table <1|2>");
  const double bandwidth = args.get_double("bandwidth", 600.0);
  const std::string which = args.positional(1);
  if (which == "1") {
    std::puts(analysis::table1_performance(bandwidth).c_str());
  } else if (which == "2") {
    std::puts(analysis::table2_parameters(bandwidth).c_str());
  } else {
    std::fprintf(stderr, "unknown table '%s'\n", which.c_str());
    return 2;
  }
  return 0;
}

int cmd_figure(const util::ArgParser& args) {
  VB_EXPECTS_MSG(args.positional_count() >= 2,
                 "usage: vodbcast figure <5|6|7|8>");
  const std::string which = args.positional(1);
  const auto pool = make_pool(args);
  analysis::FigureReport report;
  if (which == "5") {
    report = analysis::figure5_parameters(pool.get());
  } else if (which == "6") {
    report = analysis::figure6_disk_bandwidth(pool.get());
  } else if (which == "7") {
    report = analysis::figure7_access_latency(pool.get());
  } else if (which == "8") {
    report = analysis::figure8_storage(pool.get());
  } else {
    std::fprintf(stderr, "unknown figure '%s'\n", which.c_str());
    return 2;
  }
  if (args.has("csv")) {
    std::fputs(report.csv.c_str(), stdout);
  } else {
    std::puts(report.plot.c_str());
    std::puts(report.table.c_str());
  }
  return 0;
}

int cmd_plan(const util::ArgParser& args) {
  const std::string label = args.get_string("scheme", "SB:W=52");
  VB_EXPECTS_MSG(label.rfind("SB", 0) == 0,
                 "plan prints the two-loader client plan; use an SB scheme");
  const auto scheme = schemes::make_scheme(label);
  const auto* sb = dynamic_cast<const schemes::SkyscraperScheme*>(
      scheme.get());
  VB_ASSERT(sb != nullptr);
  const auto input = input_from(args);
  const auto design = sb->design(input);
  if (!design.has_value()) {
    std::puts("infeasible at this bandwidth");
    return 2;
  }
  const auto layout = sb->layout(input, *design);
  const auto phase = args.get_uint("phase", 0);
  const auto plan = client::plan_reception(layout, phase);
  std::puts(analysis::describe_plan(layout, plan).c_str());
  return 0;
}

int cmd_simulate(const util::ArgParser& args) {
  const auto scheme = schemes::make_scheme(
      args.get_string("scheme", "SB:W=52"));
  const auto input = input_from(args, 300.0);
  sim::SimulationConfig config;
  config.horizon = core::Minutes{args.get_double("horizon", 240.0)};
  config.arrivals_per_minute = args.get_double("arrivals", 4.0);
  config.seed = args.get_uint("seed", 42);
  config.plan_clients = true;
  // --plan-cache 0 recomputes every reception plan (the A/B baseline);
  // output is bit-identical either way.
  const auto plan_cache = args.get_uint("plan-cache", 1);
  VB_EXPECTS_MSG(plan_cache <= 1, "--plan-cache must be 0 or 1, got " +
                                      std::to_string(plan_cache));
  config.plan_cache = plan_cache == 1;
  config.stats_sample_cap =
      static_cast<std::size_t>(args.get_uint("stats-cap", 0));
  // Fault channels are the SB segment indices; size the plan to the design.
  const auto design = scheme->design(input);
  const auto injector = make_injector(
      args, config.horizon.v,
      design.has_value() ? design->segments : 8, config.seed);
  config.injector = injector.get();
  obs::Sink sink(static_cast<std::size_t>(
      args.get_uint("trace-limit", 65536)), spans_limit(args));
  if (wants_observability(args)) {
    config.sink = &sink;
  }
  const auto sampler = make_sampler(args);
  config.sampler = sampler.get();
  const auto reps = replications(args);
  sim::SimulationReport report;
  if (reps > 1) {
    if (sampler != nullptr) {
      std::fprintf(stderr,
                   "note: --series-out is ignored when --reps > 1\n");
    }
    const auto pool = make_pool(args);
    const auto replicated =
        sim::simulate_replicated(*scheme, input, config, reps, pool.get());
    report = replicated.merged;
    std::printf("replications  : %zu\n", replicated.replications);
    std::printf("mean wait     : %.4f +/- %.4f min (95%% CI)\n",
                report.latency_minutes.mean(), replicated.mean_ci95);
  } else {
    report = sim::simulate(*scheme, input, config);
  }
  export_observability(args, sink, sampler.get());
  export_series(args, sampler.get());
  std::printf("scheme        : %s\n", report.scheme.c_str());
  std::printf("clients served: %llu\n",
              static_cast<unsigned long long>(report.clients_served));
  std::printf("waits (min)   : %s\n", report.latency_minutes.summary().c_str());
  std::printf("jitter events : %llu\n",
              static_cast<unsigned long long>(report.jitter_events));
  if (!report.buffer_peak_mbits.empty()) {
    std::printf("buffer peak   : %.1f MB (max tuners %d)\n",
                report.buffer_peak_mbits.max() / 8.0,
                report.max_concurrent_downloads);
  }
  std::printf("server rate   : %.1f Mb/s\n", report.peak_server_rate.v);
  if (injector != nullptr) {
    std::printf("fault plan    : %zu episode(s), seed %llu\n",
                injector->plan().episodes().size(),
                static_cast<unsigned long long>(injector->plan().seed()));
    std::printf("fault damage  : %llu hit(s) = %llu repaired + %llu degraded\n",
                static_cast<unsigned long long>(report.fault_hits),
                static_cast<unsigned long long>(report.fault_repairs),
                static_cast<unsigned long long>(report.fault_degraded));
    if (!report.fault_penalty_minutes.empty()) {
      std::printf("repair penalty: %s min\n",
                  report.fault_penalty_minutes.summary().c_str());
    }
  }
  return 0;
}

int cmd_guide(const util::ArgParser& args) {
  const auto scheme = schemes::make_scheme(
      args.get_string("scheme", "SB:W=52"));
  const auto input = input_from(args, 75.0);
  const auto design = scheme->design(input);
  if (!design.has_value()) {
    std::puts("infeasible at this bandwidth");
    return 2;
  }
  const auto plan = scheme->plan(input, *design);
  const core::Minutes from{args.get_double("from", 0.0)};
  const core::Minutes until{args.get_double("until", from.v + 30.0)};
  const auto emissions = channel::timetable(plan, from, until);
  std::printf("%zu emissions in [%.1f, %.1f) min under %s\n\n",
              emissions.size(), from.v, until.v, scheme->name().c_str());
  std::puts(channel::render_timetable(emissions).c_str());
  return 0;
}

int cmd_width(const util::ArgParser& args) {
  const auto input = input_from(args, 400.0);
  const double target = args.get_double("latency", 0.25);
  const schemes::SkyscraperScheme probe(2);
  const auto choice = probe.width_for_latency(input, core::Minutes{target});
  const schemes::SkyscraperScheme chosen(choice.width);
  const auto evaluation = chosen.evaluate(input);
  VB_ASSERT(evaluation.has_value());
  std::printf("smallest W for <= %.3f min: %llu\n", target,
              static_cast<unsigned long long>(choice.width));
  std::printf("achieved latency : %.4f min\n", choice.latency.v);
  std::printf("client buffer    : %.1f MB\n",
              evaluation->metrics.client_buffer.mbytes());
  return 0;
}

/// `vodbcast hybrid --adaptive`: the online controller instead of the static
/// split. --popularity-flip shuffles the Zipf rank->title map mid-run (at
/// --flip-at, default half the horizon) so the re-convergence machinery has
/// something to chase.
int cmd_hybrid_adaptive(const util::ArgParser& args) {
  ctrl::AdaptiveConfig config;
  config.total_bandwidth =
      core::MbitPerSec{args.get_double("bandwidth", 600.0)};
  config.catalog_size =
      static_cast<std::size_t>(args.get_int("catalog", 100));
  config.hot_titles = static_cast<std::size_t>(args.get_int("hot", 10));
  config.broadcast_channels_per_video =
      static_cast<int>(args.get_int("channels", 6));
  config.sb_width = args.get_uint("width", 52);
  config.video =
      core::VideoParams{core::Minutes{args.get_double("duration", 120.0)},
                        core::MbitPerSec{args.get_double("rate", 1.5)}};
  config.arrivals_per_minute = args.get_double("arrivals", 3.0);
  config.horizon = core::Minutes{args.get_double("horizon", 1500.0)};
  config.epoch = core::Minutes{args.get_double("epoch-minutes", 60.0)};
  config.half_life = core::Minutes{args.get_double("half-life", 60.0)};
  config.promote_ratio = args.get_double("promote-ratio", 1.2);
  config.demote_ratio = args.get_double("demote-ratio", 0.8);
  config.min_tail_channels =
      static_cast<int>(args.get_int("min-tail", 1));
  config.seed = args.get_uint("seed", 11);
  config.stats_sample_cap =
      static_cast<std::size_t>(args.get_uint("stats-cap", 0));
  if (args.has("popularity-flip") || args.has("flip-at")) {
    config.flip_at =
        core::Minutes{args.get_double("flip-at", config.horizon.v / 2.0)};
    // Outside [0, horizon) the engine never flips: a later flip would be
    // reported as not re-converged, a negative one silently ignored. (A bad
    // horizon is the engine's to reject.)
    if (config.horizon.v > 0.0 &&
        (config.flip_at.v < 0.0 || config.flip_at.v >= config.horizon.v)) {
      char message[128];
      std::snprintf(message, sizeof message,
                    "--flip-at must be >= 0 and below the horizon (%g min), "
                    "got %g",
                    config.horizon.v, config.flip_at.v);
      throw std::invalid_argument(message);
    }
  }
  // Fault channels key hot titles as title id + 1; size the plan so
  // generated outages land on plausible hot titles.
  const auto injector =
      make_injector(args, config.horizon.v,
                    static_cast<int>(config.hot_titles), config.seed);
  config.injector = injector.get();

  obs::Sink sink(1, spans_limit(args));  // spans only: no trace events
  if (wants_observability(args)) {
    config.sink = &sink;
  }
  const auto sampler = make_sampler(args);
  config.sampler = sampler.get();

  const auto& policy = batching_policy(args);

  const auto reps = replications(args);
  ctrl::AdaptiveReport report;
  double ci95 = 0.0;
  if (reps > 1) {
    if (sampler != nullptr) {
      std::fprintf(stderr,
                   "note: --series-out is ignored when --reps > 1\n");
    }
    const auto pool = make_pool(args);
    const auto replicated =
        ctrl::simulate_adaptive_replicated(policy, config, reps, pool.get());
    report = replicated.merged;
    ci95 = replicated.mean_ci95;
    std::printf("replications      : %zu\n", reps);
  } else {
    report = ctrl::simulate_adaptive(policy, config);
  }

  std::printf("mode              : adaptive (epoch %.1f min, half-life %.1f"
              " min, hysteresis %.2f/%.2f)\n",
              config.epoch.v, config.half_life.v, config.promote_ratio,
              config.demote_ratio);
  std::printf("hot set           : %zu titles x %d channels%s\n",
              report.final_hot.size(), report.channels_per_video,
              report.degraded ? " (degraded)" : "");
  std::printf("broadcast latency : %.3f min worst (guaranteed)\n",
              report.broadcast_worst_latency.v);
  std::printf("epochs            : %llu (%llu realloc, %llu promote, %llu"
              " demote, %llu drains)\n",
              static_cast<unsigned long long>(report.epochs),
              static_cast<unsigned long long>(report.reallocs),
              static_cast<unsigned long long>(report.promotions),
              static_cast<unsigned long long>(report.demotions),
              static_cast<unsigned long long>(report.drains_completed));
  if (config.flip_at.v >= 0.0) {
    if (report.converged_epochs_after_flip >= 0) {
      std::printf("flip at %.0f min   : re-converged after %lld epoch(s)\n",
                  config.flip_at.v,
                  static_cast<long long>(report.converged_epochs_after_flip));
    } else {
      std::printf("flip at %.0f min   : NOT re-converged by the horizon\n",
                  config.flip_at.v);
    }
  }
  if (injector != nullptr) {
    std::printf("fault plan        : %zu episode(s), %llu forced demotion(s),"
                " %llu restart(s)\n",
                injector->plan().episodes().size(),
                static_cast<unsigned long long>(report.fault_forced_demotions),
                static_cast<unsigned long long>(report.fault_restarts));
  }
  std::printf("served            : %llu hot, %llu tail, %llu still queued\n",
              static_cast<unsigned long long>(report.served_hot),
              static_cast<unsigned long long>(report.served_tail),
              static_cast<unsigned long long>(report.unserved));
  std::printf("hot waits         : %s\n",
              report.hot_wait_minutes.empty()
                  ? "n=0"
                  : report.hot_wait_minutes.summary().c_str());
  std::printf("tail waits        : %s\n",
              report.tail_wait_minutes.empty()
                  ? "n=0"
                  : report.tail_wait_minutes.summary().c_str());
  if (reps > 1) {
    std::printf("mean wait         : %.3f min (+/- %.3f at 95%%)\n",
                report.mean_wait_minutes(), ci95);
  } else {
    std::printf("mean wait         : %.3f min\n", report.mean_wait_minutes());
  }
  export_observability(args, sink, sampler.get());
  export_series(args, sampler.get());
  return 0;
}

int cmd_hybrid(const util::ArgParser& args) {
  if (args.has("adaptive")) {
    return cmd_hybrid_adaptive(args);
  }
  batching::HybridConfig config;
  config.total_bandwidth =
      core::MbitPerSec{args.get_double("bandwidth", 600.0)};
  config.catalog_size =
      static_cast<std::size_t>(args.get_int("catalog", 100));
  config.hot_titles = static_cast<std::size_t>(args.get_int("hot", 10));
  config.broadcast_channels_per_video =
      static_cast<int>(args.get_int("channels", 6));
  config.sb_width = args.get_uint("width", 52);
  config.arrivals_per_minute = args.get_double("arrivals", 3.0);
  config.horizon = core::Minutes{args.get_double("horizon", 1500.0)};
  config.seed = args.get_uint("seed", 11);
  config.stats_sample_cap =
      static_cast<std::size_t>(args.get_uint("stats-cap", 0));
  obs::Sink sink(1, spans_limit(args));  // spans only: no trace events
  if (wants_observability(args)) {
    config.sink = &sink;
  }
  const auto sampler = make_sampler(args);
  config.sampler = sampler.get();
  const auto& policy = batching_policy(args);
  const auto reps = replications(args);
  batching::HybridReport report;
  if (reps > 1) {
    if (sampler != nullptr) {
      std::fprintf(stderr,
                   "note: --series-out is ignored when --reps > 1\n");
    }
    const auto pool = make_pool(args);
    report = batching::evaluate_hybrid_replicated(policy, config, reps,
                                                  pool.get())
                 .merged;
    std::printf("replications      : %zu\n", reps);
  } else {
    report = batching::evaluate_hybrid(policy, config);
  }
  std::printf("hot titles        : %zu (%.0f%% of demand)\n",
              report.hot_titles, 100.0 * report.hot_demand_fraction);
  std::printf("broadcast latency : %.3f min worst (guaranteed)\n",
              report.broadcast_worst_latency.v);
  std::printf("tail channels     : %d (%s)\n", report.multicast_channels,
              report.multicast.policy.c_str());
  std::printf("tail waits        : %s\n",
              report.multicast.wait_minutes.summary().c_str());
  std::printf("combined mean wait: %.3f min\n",
              report.combined_mean_wait_minutes);
  export_observability(args, sink, sampler.get());
  export_series(args, sampler.get());
  return 0;
}

int cmd_metro(const util::ArgParser& args) {
  // Regions come as a comma-separated arrival-rate list; channel budgets
  // are one shared value or one per region.
  const auto rates =
      args.get_double_list("regions", {200.0, 150.0, 100.0, 50.0});
  const auto channels = args.get_uint_list("channels", {120});
  VB_EXPECTS_MSG(channels.size() == 1 || channels.size() == rates.size(),
                 "--channels takes one budget or one per region");
  std::vector<metro::RegionSpec> regions;
  regions.reserve(rates.size());
  for (std::size_t r = 0; r < rates.size(); ++r) {
    regions.push_back(metro::RegionSpec{
        rates[r],
        static_cast<int>(channels[channels.size() == 1 ? 0 : r])});
  }
  const metro::Topology topology(
      std::move(regions), static_cast<int>(args.get_uint("link-capacity", 32)),
      core::Minutes{args.get_double("link-latency", 0.5)});

  metro::FederationConfig config;
  config.catalog_size = static_cast<std::size_t>(args.get_uint("catalog", 100));
  config.zipf_theta = args.get_double("theta", workload::kPaperSkew);
  config.replicate_top =
      static_cast<std::size_t>(args.get_uint("replicate-top", 10));
  config.sb_channels_per_title =
      static_cast<int>(args.get_int("sb-channels", 6));
  config.sb_width = args.get_uint("width", 52);
  config.video = core::VideoParams{core::Minutes{args.get_double("duration", 120.0)},
                                   core::MbitPerSec{args.get_double("rate", 1.5)}};
  config.horizon = core::Minutes{args.get_double("horizon", 600.0)};
  config.patience = core::Minutes{args.get_double("patience", 15.0)};
  config.spill_wait = core::Minutes{args.get_double("spill-wait", 5.0)};
  config.reject_penalty =
      core::Minutes{args.get_double("reject-penalty", 30.0)};
  config.seed = args.get_uint("seed", 1);
  config.stats_sample_cap =
      static_cast<std::size_t>(args.get_uint("stats-cap", 0));

  // Per-region fault domains: --fault-plan generates a plan per region
  // (region r's seed is the (r+1)-th output of SplitMix64(fault seed), the
  // replication seed rule); --dark R blacks out one region whole-horizon.
  const bool has_dark = args.has("dark");
  if (args.has("fault-plan") || has_dark) {
    const auto dark =
        has_dark ? args.get_uint("dark", 0) : static_cast<std::uint64_t>(-1);
    VB_EXPECTS_MSG(!has_dark || dark < topology.size(),
                   "--dark region index out of range");
    std::optional<fault::PlanSpec> spec;
    if (const auto spec_text = args.get("fault-plan")) {
      spec = fault::parse_plan_spec(*spec_text);
      VB_EXPECTS_MSG(spec.has_value(),
                     "malformed --fault-plan spec: " + *spec_text);
      spec->horizon_min = config.horizon.v;
      spec->channels = 1;
    }
    util::SplitMix64 fault_seeds(
        args.get_uint("fault-seed", config.seed ^ 0x9E3779B97F4A7C15ULL));
    for (std::size_t r = 0; r < topology.size(); ++r) {
      const auto seed = fault_seeds.next();
      std::vector<fault::Episode> episodes;
      if (spec.has_value()) {
        episodes = fault::Plan::generate(*spec, seed).episodes();
      }
      if (has_dark && r == dark) {
        episodes.push_back(fault::Episode{fault::EpisodeKind::kChannelOutage,
                                          0.0, config.horizon.v, -1, {}});
      }
      config.fault_plans.push_back(fault::Plan(std::move(episodes), seed));
    }
  }

  obs::Sink sink(1, spans_limit(args));  // spans only: no trace events
  if (wants_observability(args)) {
    config.sink = &sink;
  }
  const auto pool = make_pool(args);
  const auto reps = replications(args);

  metro::FederationReport report;
  if (reps > 1) {
    const auto replicated = metro::simulate_federation_replicated(
        topology, config, reps, pool.get());
    report = std::move(replicated.merged);
    std::printf("replications  : %zu\n", replicated.replications);
    std::printf("mean pen. wait: %.4f +/- %.4f min (95%% CI)\n",
                report.mean_penalized_wait_min(), replicated.mean_ci95);
  } else {
    report = metro::simulate_federation(topology, config, pool.get());
  }
  export_observability(args, sink);

  std::printf("regions       : %zu (link capacity %d, %.2f min/hop)\n",
              topology.size(), topology.link_capacity(),
              topology.link_latency_per_hop().v);
  std::printf("placement     : %zu replicated head titles of %zu, "
              "%d tail slots\n",
              report.replicated_titles, config.catalog_size,
              report.tail_slots_total);
  if (report.replicated_titles > 0) {
    std::printf("broadcast D1  : %.4f min (%d SB channels/title, W=%llu)\n",
                report.broadcast_latency_min, config.sb_channels_per_title,
                static_cast<unsigned long long>(config.sb_width));
  }
  const auto pct = [&](std::uint64_t part) {
    return report.arrivals == 0
               ? 0.0
               : 100.0 * static_cast<double>(part) /
                     static_cast<double>(report.arrivals);
  };
  std::printf("arrivals      : %llu\n",
              static_cast<unsigned long long>(report.arrivals));
  std::printf("served local  : %llu (%.2f%%)\n",
              static_cast<unsigned long long>(report.served_local),
              pct(report.served_local));
  std::printf("rerouted      : %llu (%.2f%%)\n",
              static_cast<unsigned long long>(report.rerouted),
              pct(report.rerouted));
  std::printf("rejected      : %llu (%.2f%%)\n",
              static_cast<unsigned long long>(report.rejected),
              pct(report.rejected));
  std::printf("mean pen. wait: %.4f min\n", report.mean_penalized_wait_min());
  std::printf("waits (min)   : %s\n", report.wait_minutes.summary().c_str());
  std::printf("link traffic  : %.1f Gbit\n", report.link_mbits / 1000.0);
  for (std::size_t g = 0; g < report.regions.size(); ++g) {
    const auto& r = report.regions[g];
    std::printf(
        "  region %zu    : arrivals=%llu local=%llu out=%llu in=%llu "
        "rejected=%llu wait=%s\n",
        g, static_cast<unsigned long long>(r.arrivals),
        static_cast<unsigned long long>(r.served_local),
        static_cast<unsigned long long>(r.rerouted_out),
        static_cast<unsigned long long>(r.rerouted_in),
        static_cast<unsigned long long>(r.rejected),
        r.wait_minutes.empty() ? "n/a" : r.wait_minutes.summary().c_str());
  }
  return 0;
}

using FlagList = std::vector<std::string>;

FlagList concat(std::initializer_list<FlagList> lists) {
  FlagList out;
  for (const auto& list : lists) {
    out.insert(out.end(), list.begin(), list.end());
  }
  return out;
}

/// The flags each subcommand reads, shared lists first. Anything else on
/// the command line is rejected (exit 2), so a misspelled flag cannot
/// silently fall back to its default. nullopt for help and unknown
/// commands.
std::optional<FlagList> known_flags(const std::string& command,
                                    bool adaptive) {
  const FlagList input = {"bandwidth", "videos", "duration", "rate"};
  const FlagList run = {"seed", "reps", "threads"};
  const FlagList fault = {"fault-plan", "fault-seed", "fault-retries"};
  const FlagList obs = {"metrics-out", "metrics-format", "spans-out",
                        "spans-limit", "spans-format"};
  const FlagList series = {"series-out", "series-interval", "series-limit"};
  const FlagList hybrid = {"adaptive", "bandwidth", "catalog", "hot",
                           "channels", "width", "arrivals", "horizon",
                           "policy", "stats-cap"};
  if (command == "design") {
    return concat({{"scheme"}, input});
  }
  if (command == "table") {
    return FlagList{"bandwidth"};
  }
  if (command == "figure") {
    return FlagList{"csv", "threads"};
  }
  if (command == "plan") {
    return concat({{"scheme", "phase"}, input});
  }
  if (command == "simulate") {
    return concat({{"scheme", "horizon", "arrivals", "plan-cache",
                    "stats-cap", "trace-out", "trace-limit"},
                   input, run, fault, obs, series});
  }
  if (command == "width") {
    return concat({{"latency"}, input});
  }
  if (command == "guide") {
    return concat({{"scheme", "from", "until"}, input});
  }
  if (command == "hybrid" && adaptive) {
    return concat({hybrid,
                   {"duration", "rate", "epoch-minutes", "half-life",
                    "promote-ratio", "demote-ratio", "min-tail",
                    "popularity-flip", "flip-at"},
                   run, fault, obs, series});
  }
  if (command == "hybrid") {
    return concat({hybrid, run, obs, series});
  }
  if (command == "metro") {
    return concat({{"regions", "channels", "link-capacity", "link-latency",
                    "catalog", "theta", "replicate-top", "sb-channels",
                    "width", "duration", "rate", "horizon", "patience",
                    "spill-wait", "reject-penalty", "stats-cap", "dark",
                    "fault-plan", "fault-seed"},
                   run, obs});
  }
  return std::nullopt;
}

int cmd_help() {
  std::puts(
      "vodbcast — Skyscraper Broadcasting toolkit\n"
      "  design   --scheme <label> --bandwidth <Mb/s>   closed-form design\n"
      "  table    <1|2> [--bandwidth]                   the paper's tables\n"
      "  figure   <5|6|7|8> [--csv] [--threads T]       the paper's figures\n"
      "  plan     --scheme SB:W=n --phase t0            client plan detail\n"
      "  simulate --scheme <label> [--horizon ...]      discrete-event run\n"
      "           [--reps R] [--threads T]  R seeded replications with a\n"
      "           95% CI on the mean wait; identical output at any T\n"
      "           [--metrics-out m.json] [--metrics-format json|openmetrics]\n"
      "           (openmetrics without --metrics-out prints to stdout)\n"
      "           [--trace-out run.json|run.jsonl] [--trace-limit N]\n"
      "           arrival-path events (simulate only)\n"
      "           [--series-out s.jsonl]\n"
      "           [--series-interval MIN] [--series-limit N]\n"
      "           [--spans-out spans.jsonl] [--spans-limit N]\n"
      "           [--spans-format jsonl|chrome|folded]  causal span tree\n"
      "           (analyze and contract-check with tools/trace_analyze;\n"
      "           hybrid takes them all but --trace-out and --trace-limit)\n"
      "           [--fault-plan outages=2,bursts=1,stalls=1,restart=1,...]\n"
      "           [--fault-seed N] [--fault-retries 1]  seeded failure\n"
      "           episodes + recovery (trace_analyze checks the spans)\n"
      "           [--plan-cache 0|1]  phase-keyed reception-plan cache\n"
      "           (default on; identical output, metro-scale speed)\n"
      "           [--stats-cap N]  fold wait samples into a quantile sketch\n"
      "           past N (0 = exact; hybrid accepts --stats-cap too)\n"
      "  width    --bandwidth B --latency L             width for a target\n"
      "  guide    --scheme <label> [--from --until]     emission timetable\n"
      "  hybrid   [--hot N --channels K --policy mql]   hybrid server\n"
      "           [--adaptive] online controller: EWMA popularity +\n"
      "           epoch reallocation ([--epoch-minutes 60] [--half-life 60]\n"
      "           [--promote-ratio 1.2] [--demote-ratio 0.8] [--min-tail 1])\n"
      "           [--popularity-flip] [--flip-at MIN]  mid-run rank shuffle\n"
      "           [--fault-plan ...] outage-forced demotions + restarts\n"
      "  metro    [--regions 200,150,100,50]  multi-head-end federation:\n"
      "           per-region arrival rates (comma list), [--channels N|list]\n"
      "           channel budgets, [--replicate-top R] replication degree,\n"
      "           [--link-capacity N] [--link-latency MIN] inter-region\n"
      "           links, [--sb-channels K] [--width W] replicated-head SB\n"
      "           design, [--dark R] one region dark whole-horizon,\n"
      "           [--fault-plan ...] [--fault-seed N] per-region fault\n"
      "           domains, [--patience MIN] [--spill-wait MIN]\n"
      "           [--reject-penalty MIN] routing knobs; --reps/--threads/\n"
      "           --seed/--stats-cap/--metrics-out/--spans-out as simulate\n"
      "unknown flags are rejected (exit 2), naming the flag\n"
      "scheme labels: SB:W=<n|inf>, SB(fast|flat):W=<n>, PB:a, PB:b, PPB:a,\n"
      "               PPB:b, FB, HB, staggered");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::ArgParser args(argc, argv);
    const std::string command =
        args.positional_count() > 0 ? args.positional(0) : "help";
    const auto known = known_flags(command, args.has("adaptive"));
    if (known.has_value()) {
      if (const auto flag = args.unknown_flag(*known)) {
        std::fprintf(stderr,
                     "vodbcast %s: unknown flag --%s; try 'vodbcast help'\n",
                     command.c_str(), flag->c_str());
        return 2;
      }
      // Only a fault plan reads its seed and retry budget.
      for (const char* flag : {"fault-seed", "fault-retries"}) {
        if (args.has(flag) && !args.has("fault-plan")) {
          std::fprintf(stderr, "vodbcast %s: --%s needs --fault-plan\n",
                       command.c_str(), flag);
          return 2;
        }
      }
    }
    if (command == "design") {
      return cmd_design(args);
    }
    if (command == "table") {
      return cmd_table(args);
    }
    if (command == "figure") {
      return cmd_figure(args);
    }
    if (command == "plan") {
      return cmd_plan(args);
    }
    if (command == "simulate") {
      return cmd_simulate(args);
    }
    if (command == "width") {
      return cmd_width(args);
    }
    if (command == "guide") {
      return cmd_guide(args);
    }
    if (command == "hybrid") {
      return cmd_hybrid(args);
    }
    if (command == "metro") {
      return cmd_metro(args);
    }
    if (command == "help") {
      return cmd_help();
    }
    std::fprintf(stderr, "unknown command '%s'; try 'vodbcast help'\n",
                 command.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
