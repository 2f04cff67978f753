// Determinism contract of the parallel adopters: a TaskPool changes who
// computes each slot, never the result. Every test here compares the serial
// path (null pool) against a many-worker pool bit for bit.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "analysis/experiments.hpp"
#include "analysis/sweep.hpp"
#include "batching/queue_policies.hpp"
#include "ctrl/adaptive.hpp"
#include "fault/injector.hpp"
#include "metro/federation.hpp"
#include "metro/topology.hpp"
#include "obs/sink.hpp"
#include "schemes/registry.hpp"
#include "sim/replicate.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/task_pool.hpp"

namespace vodbcast {
namespace {

void expect_identical(const std::vector<analysis::SchemeSweep>& a,
                      const std::vector<analysis::SchemeSweep>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t s = 0; s < a.size(); ++s) {
    EXPECT_EQ(a[s].scheme, b[s].scheme);
    ASSERT_EQ(a[s].points.size(), b[s].points.size());
    for (std::size_t p = 0; p < a[s].points.size(); ++p) {
      const auto& pa = a[s].points[p];
      const auto& pb = b[s].points[p];
      EXPECT_EQ(pa.bandwidth_mbps, pb.bandwidth_mbps);
      ASSERT_EQ(pa.evaluation.has_value(), pb.evaluation.has_value());
      if (pa.evaluation.has_value()) {
        EXPECT_EQ(pa.evaluation->design.segments,
                  pb.evaluation->design.segments);
        EXPECT_EQ(pa.evaluation->design.replicas,
                  pb.evaluation->design.replicas);
        EXPECT_EQ(pa.evaluation->design.alpha, pb.evaluation->design.alpha);
        EXPECT_EQ(pa.evaluation->metrics.access_latency.v,
                  pb.evaluation->metrics.access_latency.v);
        EXPECT_EQ(pa.evaluation->metrics.client_buffer.v,
                  pb.evaluation->metrics.client_buffer.v);
        EXPECT_EQ(pa.evaluation->metrics.client_disk_bandwidth.v,
                  pb.evaluation->metrics.client_disk_bandwidth.v);
      }
    }
  }
}

TEST(ParallelSweepTest, PooledSweepMatchesSerialBitForBit) {
  const auto set = schemes::paper_figure_set();
  const auto input = analysis::paper_design_input();
  const auto axis = analysis::bandwidth_range(100.0, 600.0, 25.0);

  const auto serial = analysis::sweep_bandwidth(set, input, axis, nullptr);
  util::TaskPool pool(8);
  const auto pooled = analysis::sweep_bandwidth(set, input, axis, &pool);
  expect_identical(serial, pooled);
}

TEST(ParallelSweepTest, FigureReportsIdenticalAcrossThreadCounts) {
  util::TaskPool pool(8);
  const auto serial = analysis::figure7_access_latency(nullptr);
  const auto pooled = analysis::figure7_access_latency(&pool);
  EXPECT_EQ(serial.csv, pooled.csv);
  EXPECT_EQ(serial.plot, pooled.plot);
  EXPECT_EQ(serial.table, pooled.table);
}

sim::SimulationConfig replication_config(obs::Sink* sink) {
  sim::SimulationConfig config;
  config.horizon = core::Minutes{120.0};
  config.arrivals_per_minute = 4.0;
  config.seed = 42;
  config.plan_clients = true;
  config.sink = sink;
  return config;
}

TEST(ReplicatedSimTest, MergedReportBitIdenticalAtAnyThreadCount) {
  const auto scheme = schemes::make_scheme("SB:W=52");
  const auto input = analysis::paper_design_input(300.0);

  obs::Sink sink_serial(4096);
  const auto serial = sim::simulate_replicated(
      *scheme, input, replication_config(&sink_serial), 6, nullptr);

  obs::Sink sink_pooled(4096);
  util::TaskPool pool(8);
  const auto pooled = sim::simulate_replicated(
      *scheme, input, replication_config(&sink_pooled), 6, &pool);

  // Sample vectors preserve merge order, so equality here is bitwise.
  EXPECT_EQ(serial.merged.latency_minutes.samples(),
            pooled.merged.latency_minutes.samples());
  EXPECT_EQ(serial.merged.buffer_peak_mbits.samples(),
            pooled.merged.buffer_peak_mbits.samples());
  EXPECT_EQ(serial.merged.clients_served, pooled.merged.clients_served);
  EXPECT_EQ(serial.merged.jitter_events, pooled.merged.jitter_events);
  EXPECT_EQ(serial.merged.max_concurrent_downloads,
            pooled.merged.max_concurrent_downloads);
  EXPECT_EQ(serial.replication_means.samples(),
            pooled.replication_means.samples());
  EXPECT_EQ(serial.mean_ci95, pooled.mean_ci95);

  // Domain metrics and the trace merge identically; the *_ns timing
  // histograms are excluded — they measure host wall time, which no
  // schedule can make reproducible.
  const auto ms = sink_serial.metrics.snapshot();
  const auto mp = sink_pooled.metrics.snapshot();
  EXPECT_EQ(ms.counters, mp.counters);
  EXPECT_EQ(ms.gauges, mp.gauges);
  for (const auto& hs : ms.histograms) {
    if (hs.name.size() >= 3 &&
        hs.name.compare(hs.name.size() - 3, 3, "_ns") == 0) {
      continue;
    }
    bool found = false;
    for (const auto& hp : mp.histograms) {
      if (hp.name == hs.name) {
        EXPECT_EQ(hs.buckets, hp.buckets) << hs.name;
        EXPECT_EQ(hs.count, hp.count) << hs.name;
        EXPECT_EQ(hs.sum, hp.sum) << hs.name;
        found = true;
      }
    }
    EXPECT_TRUE(found) << hs.name;
  }
  EXPECT_EQ(sink_serial.trace.to_jsonl(), sink_pooled.trace.to_jsonl());
}

TEST(ReplicatedSimTest, MergedFamiliesAndSketchesBitIdenticalAtAnyThreadCount) {
  const auto scheme = schemes::make_scheme("SB:W=52");
  const auto input = analysis::paper_design_input(300.0);

  obs::Sink sink_serial(4096);
  const auto serial = sim::simulate_replicated(
      *scheme, input, replication_config(&sink_serial), 6, nullptr);

  obs::Sink sink_pooled(4096);
  util::TaskPool pool(4);
  const auto pooled = sim::simulate_replicated(
      *scheme, input, replication_config(&sink_pooled), 6, &pool);
  ASSERT_EQ(serial.merged.clients_served, pooled.merged.clients_served);

  const auto ms = sink_serial.metrics.snapshot();
  const auto mp = sink_pooled.metrics.snapshot();

  const auto series_id = [](const std::string& name,
                            const obs::Snapshot::Labels& labels) {
    std::string id = name + "{";
    for (const auto& [k, v] : labels) {
      id += k + "=" + v + ";";
    }
    return id + "}";
  };

  // Labeled counters and gauges fold label-wise in fixed replication
  // order; both the series sets and the values must match bit for bit.
  std::vector<std::pair<std::string, std::uint64_t>> cs;
  std::vector<std::pair<std::string, std::uint64_t>> cp;
  for (const auto& v : ms.counters) {
    if (!v.labels.empty()) {
      cs.emplace_back(series_id(v.name, v.labels), v.value);
    }
  }
  for (const auto& v : mp.counters) {
    if (!v.labels.empty()) {
      cp.emplace_back(series_id(v.name, v.labels), v.value);
    }
  }
  EXPECT_EQ(cs, cp);

  std::vector<std::pair<std::string, double>> gs;
  std::vector<std::pair<std::string, double>> gp;
  for (const auto& v : ms.gauges) {
    if (!v.labels.empty()) {
      gs.emplace_back(series_id(v.name, v.labels), v.value);
    }
  }
  for (const auto& v : mp.gauges) {
    if (!v.labels.empty()) {
      gp.emplace_back(series_id(v.name, v.labels), v.value);
    }
  }
  EXPECT_FALSE(gs.empty());  // per-channel utilization must be present
  EXPECT_EQ(gs, gp);

  // Sketches merge bucket-wise; every per-title wait sketch must carry
  // identical bucket maps, tail stats, and quantile estimates.
  ASSERT_EQ(ms.sketches.size(), mp.sketches.size());
  ASSERT_FALSE(ms.sketches.empty());
  for (std::size_t i = 0; i < ms.sketches.size(); ++i) {
    const auto& a = ms.sketches[i];
    const auto& b = mp.sketches[i];
    ASSERT_EQ(series_id(a.name, a.labels), series_id(b.name, b.labels));
    EXPECT_EQ(a.buckets, b.buckets) << a.name;
    EXPECT_EQ(a.zero_count, b.zero_count) << a.name;
    EXPECT_EQ(a.count, b.count) << a.name;
    EXPECT_EQ(a.sum, b.sum) << a.name;
    EXPECT_EQ(a.min, b.min) << a.name;
    EXPECT_EQ(a.max, b.max) << a.name;
    EXPECT_EQ(a.p99, b.p99) << a.name;
    EXPECT_EQ(a.p999, b.p999) << a.name;
  }
}

TEST(ReplicatedSimTest, SeedRuleIsTheSplitMixStream) {
  // Replication r consumes the (r+1)-th SplitMix64 output of config.seed;
  // a single replication therefore reproduces simulate() run with that
  // derived seed exactly.
  const auto scheme = schemes::make_scheme("SB:W=52");
  const auto input = analysis::paper_design_input(300.0);
  auto config = replication_config(nullptr);

  const auto replicated =
      sim::simulate_replicated(*scheme, input, config, 1, nullptr);

  util::SplitMix64 stream(config.seed);
  auto derived = config;
  derived.seed = stream.next();
  const auto direct = sim::simulate(*scheme, input, derived);
  EXPECT_EQ(replicated.merged.latency_minutes.samples(),
            direct.latency_minutes.samples());
  EXPECT_EQ(replicated.merged.clients_served, direct.clients_served);
  EXPECT_EQ(replicated.replications, 1U);
  EXPECT_EQ(replicated.mean_ci95, 0.0);  // undefined below 2 reps
}

TEST(ReplicatedSimTest, ReplicationsAreIndependentAndAggregated) {
  const auto scheme = schemes::make_scheme("SB:W=52");
  const auto input = analysis::paper_design_input(300.0);
  const auto config = replication_config(nullptr);

  const auto replicated =
      sim::simulate_replicated(*scheme, input, config, 4, nullptr);
  EXPECT_EQ(replicated.replications, 4U);
  EXPECT_EQ(replicated.replication_means.count(), 4U);
  EXPECT_GT(replicated.mean_ci95, 0.0);
  // Different seeds: the per-replication means are not all equal.
  const auto& means = replicated.replication_means.samples();
  bool all_equal = true;
  for (const double m : means) {
    all_equal = all_equal && (m == means.front());
  }
  EXPECT_FALSE(all_equal);
  EXPECT_EQ(replicated.merged.latency_minutes.count(),
            replicated.merged.clients_served);
}

// The driver itself, on a toy report: seeds follow the SplitMix64 stream,
// folds run in replication order, replications that served nobody add no
// mean, and all three schedules give the same result.
TEST(ReplicateDriverTest, SeedsFoldOrderAndMeansAtAnyPoolUse) {
  struct Report {
    std::vector<std::uint64_t> seeds;
    sim::Distribution waits;
  };
  constexpr std::size_t kReps = 6;
  // Odd seeds serve one client, even seeds serve nobody.
  const auto serves = [](std::uint64_t seed) { return seed % 2 == 1; };
  const auto run_with = [&](util::TaskPool* pool, sim::PoolUse use) {
    return sim::replicate<Report>(
        7, kReps, pool, nullptr, use,
        [&](std::uint64_t seed, obs::Sink*, util::TaskPool*) {
          Report report;
          report.seeds.push_back(seed);
          if (serves(seed)) {
            report.waits.add(static_cast<double>(seed % 1000));
          }
          return report;
        },
        [](Report& into, const Report& rep, std::size_t r) {
          EXPECT_EQ(into.seeds.size(), r);
          into.seeds.push_back(rep.seeds.front());
          into.waits.merge(rep.waits);
        },
        &Report::waits);
  };

  util::SplitMix64 stream(7);
  std::vector<std::uint64_t> seeds(kReps);
  std::vector<double> means;
  for (auto& seed : seeds) {
    seed = stream.next();
    if (serves(seed)) {
      means.push_back(static_cast<double>(seed % 1000));
    }
  }
  ASSERT_GE(means.size(), 2U);
  ASSERT_LT(means.size(), kReps);  // the skip rule is exercised

  util::TaskPool pool(4);
  for (const auto& replicated :
       {run_with(nullptr, sim::PoolUse::kAcrossReplications),
        run_with(&pool, sim::PoolUse::kAcrossReplications),
        run_with(&pool, sim::PoolUse::kWithinReplication)}) {
    EXPECT_EQ(replicated.replications, kReps);
    EXPECT_EQ(replicated.merged.seeds, seeds);
    EXPECT_EQ(replicated.replication_means.samples(), means);
    EXPECT_EQ(replicated.mean_ci95,
              sim::replication_ci95(replicated.replication_means));
    EXPECT_GT(replicated.mean_ci95, 0.0);
  }
}

// The shard-merge tie-break contract: when events/spans from different
// shards carry the *same* timestamp, the merged order is pinned to shard
// index first, record index within the shard second — never to anything a
// thread schedule could perturb.
TEST(ShardMergeTieBreakTest, TracerBreaksEqualTimestampsByShardThenRecord) {
  obs::Tracer shard0(8);
  obs::Tracer shard1(8);
  const auto tagged = [](double t, std::uint64_t tag) {
    obs::TraceEvent e;
    e.sim_time_min = t;
    e.kind = obs::EventKind::kClientArrival;
    e.client = tag;
    return e;
  };
  // Both shards record two events at the identical instant.
  shard0.record(tagged(1.0, 1));
  shard0.record(tagged(1.0, 2));
  shard1.record(tagged(1.0, 3));
  shard1.record(tagged(1.0, 4));

  obs::Tracer merged(8);
  merged.merge_from(shard0);  // fixed shard order: 0 then 1
  merged.merge_from(shard1);
  const auto events = merged.events();
  ASSERT_EQ(events.size(), 4U);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].client, i + 1) << "tie broken out of shard order";
  }
}

TEST(ShardMergeTieBreakTest, SpanTracerBreaksEqualStartsByShardThenRecord) {
  const auto tagged = [](std::uint64_t tag) {
    obs::Span s;
    s.start_min = 1.0;
    s.end_min = 2.0;
    s.client = tag;
    return s;
  };
  obs::SpanTracer shard0(8);
  obs::SpanTracer shard1(8);
  shard0.record(tagged(1));
  shard0.record(tagged(2));
  shard1.record(tagged(3));
  shard1.record(tagged(4));

  obs::SpanTracer merged(8);
  merged.merge_from(shard0);
  merged.merge_from(shard1);
  const auto spans = merged.spans();
  ASSERT_EQ(spans.size(), 4U);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].client, i + 1) << "tie broken out of shard order";
    // Fresh ids in merge order: the remap is deterministic too.
    EXPECT_EQ(spans[i].id, i + 1);
  }
}

// Replicated runs fold per-worker span tracers in replication order, so the
// merged span stream is bit-identical at any thread count.
TEST(ReplicatedSimTest, MergedSpansBitIdenticalAtAnyThreadCount) {
  const auto scheme = schemes::make_scheme("SB:W=52");
  const auto input = analysis::paper_design_input(300.0);

  const auto run = [&](util::TaskPool* pool) {
    auto sink = std::make_unique<obs::Sink>(65536, 65536);
    auto config = replication_config(sink.get());
    config.plan_clients = true;
    (void)sim::simulate_replicated(*scheme, input, config, 3, pool);
    return sink;
  };
  const auto serial = run(nullptr);
  util::TaskPool pool(4);
  const auto pooled = run(&pool);

  EXPECT_GT(serial->spans.recorded(), 0U);
  EXPECT_EQ(serial->spans.to_jsonl(), pooled->spans.to_jsonl());
  EXPECT_EQ(serial->spans.dropped(), pooled->spans.dropped());
}

// Fault-injected replicated runs obey the same contract: the injector's
// verdicts are pure functions of the plan seed, so damage, repairs and the
// fault trace merge bit-identically at any thread count.
TEST(ReplicatedSimTest, FaultRunsBitIdenticalAtAnyThreadCount) {
  const auto scheme = schemes::make_scheme("SB:W=52");
  const auto input = analysis::paper_design_input(300.0);

  fault::PlanSpec spec;
  spec.horizon_min = 120.0;
  spec.channels = 10;
  spec.outages = 2;
  spec.bursts = 2;
  spec.disk_stalls = 1;
  spec.server_restart = true;
  const fault::Injector injector{fault::Plan::generate(spec, 19),
                                 fault::RecoveryPolicy{.retry_budget = 1}};

  const auto run = [&](util::TaskPool* pool) {
    auto sink = std::make_unique<obs::Sink>(65536, 65536);
    auto config = replication_config(sink.get());
    config.injector = &injector;
    const auto replicated =
        sim::simulate_replicated(*scheme, input, config, 4, pool);
    return std::make_pair(replicated, std::move(sink));
  };
  const auto [serial, sink_serial] = run(nullptr);
  util::TaskPool pool(4);
  const auto [pooled, sink_pooled] = run(&pool);

  EXPECT_GT(serial.merged.fault_hits, 0U);
  EXPECT_EQ(serial.merged.fault_hits, pooled.merged.fault_hits);
  EXPECT_EQ(serial.merged.fault_repairs, pooled.merged.fault_repairs);
  EXPECT_EQ(serial.merged.fault_degraded, pooled.merged.fault_degraded);
  EXPECT_EQ(serial.merged.fault_penalty_minutes.samples(),
            pooled.merged.fault_penalty_minutes.samples());
  EXPECT_EQ(serial.merged.latency_minutes.samples(),
            pooled.merged.latency_minutes.samples());
  EXPECT_EQ(sink_serial->trace.to_jsonl(), sink_pooled->trace.to_jsonl());
  EXPECT_EQ(sink_serial->spans.to_jsonl(), sink_pooled->spans.to_jsonl());
  const auto ms = sink_serial->metrics.snapshot();
  const auto mp = sink_pooled->metrics.snapshot();
  EXPECT_EQ(ms.counters, mp.counters);
}

// The adaptive controller under a fault plan: forced demotions and
// restarts are epoch-boundary decisions on pure plan queries, so the
// replicated merge stays bit-identical too.
TEST(ReplicatedAdaptiveTest, FaultRunsBitIdenticalAtAnyThreadCount) {
  fault::PlanSpec spec;
  spec.horizon_min = 500.0;
  spec.channels = 10;
  spec.outages = 3;
  spec.mean_outage_min = 90.0;
  spec.server_restart = true;
  const fault::Injector injector{fault::Plan::generate(spec, 23)};

  const batching::MqlPolicy policy;
  ctrl::AdaptiveConfig config;
  config.horizon = core::Minutes{500.0};
  config.arrivals_per_minute = 2.0;
  config.injector = &injector;

  const auto serial =
      ctrl::simulate_adaptive_replicated(policy, config, 4, nullptr);
  util::TaskPool pool(4);
  const auto pooled =
      ctrl::simulate_adaptive_replicated(policy, config, 4, &pool);

  EXPECT_EQ(serial.merged.wait_minutes.samples(),
            pooled.merged.wait_minutes.samples());
  EXPECT_EQ(serial.merged.fault_forced_demotions,
            pooled.merged.fault_forced_demotions);
  EXPECT_EQ(serial.merged.fault_restarts, pooled.merged.fault_restarts);
  EXPECT_EQ(serial.merged.served_hot, pooled.merged.served_hot);
  EXPECT_EQ(serial.merged.served_tail, pooled.merged.served_tail);
  EXPECT_EQ(serial.mean_ci95, pooled.mean_ci95);
}

metro::FederationConfig federation_config(obs::Sink* sink) {
  metro::FederationConfig config;
  config.catalog_size = 48;
  config.replicate_top = 6;
  config.horizon = core::Minutes{150.0};
  config.seed = 21;
  config.sink = sink;
  // Region 2 goes dark mid-horizon so the failover/reroute paths (and their
  // spans) participate in the comparison, not just the local fast path.
  for (std::size_t r = 0; r < 4; ++r) {
    std::vector<fault::Episode> episodes;
    if (r == 2) {
      episodes.push_back(fault::Episode{fault::EpisodeKind::kChannelOutage,
                                        30.0, 100.0, -1, {}});
    }
    config.fault_plans.push_back(fault::Plan(std::move(episodes), 100 + r));
  }
  return config;
}

TEST(MetroFederationTest, FederationBitIdenticalAtAnyThreadCount) {
  const metro::Topology topology(
      {{3.0, 60}, {2.0, 60}, {1.5, 60}, {1.0, 60}}, 8, core::Minutes{0.5});
  const auto run = [&](util::TaskPool* pool) {
    auto sink = std::make_unique<obs::Sink>(16384, 16384);
    auto report = metro::simulate_federation_replicated(
        topology, federation_config(sink.get()), 2, pool);
    return std::pair(std::move(sink), std::move(report));
  };

  const auto [serial_sink, serial] = run(nullptr);
  util::TaskPool pool(4);
  const auto [pooled_sink, pooled] = run(&pool);

  EXPECT_EQ(serial.merged.arrivals, pooled.merged.arrivals);
  EXPECT_EQ(serial.merged.served_local, pooled.merged.served_local);
  EXPECT_EQ(serial.merged.rerouted, pooled.merged.rerouted);
  EXPECT_EQ(serial.merged.rejected, pooled.merged.rejected);
  EXPECT_EQ(serial.merged.link_mbits, pooled.merged.link_mbits);
  EXPECT_EQ(serial.merged.wait_minutes.samples(),
            pooled.merged.wait_minutes.samples());
  EXPECT_EQ(serial.mean_ci95, pooled.mean_ci95);
  ASSERT_EQ(serial.merged.regions.size(), pooled.merged.regions.size());
  for (std::size_t r = 0; r < serial.merged.regions.size(); ++r) {
    const auto& a = serial.merged.regions[r];
    const auto& b = pooled.merged.regions[r];
    EXPECT_EQ(a.arrivals, b.arrivals);
    EXPECT_EQ(a.served_local, b.served_local);
    EXPECT_EQ(a.rerouted_out, b.rerouted_out);
    EXPECT_EQ(a.rerouted_in, b.rerouted_in);
    EXPECT_EQ(a.rejected, b.rejected);
    EXPECT_EQ(a.link_mbits, b.link_mbits);
    EXPECT_EQ(a.wait_minutes.samples(), b.wait_minutes.samples());
  }
  EXPECT_EQ(serial_sink->metrics.to_openmetrics(),
            pooled_sink->metrics.to_openmetrics());
  EXPECT_EQ(serial_sink->spans.to_jsonl(), pooled_sink->spans.to_jsonl());
  EXPECT_EQ(serial_sink->trace.to_jsonl(), pooled_sink->trace.to_jsonl());
}

// Satellite of the federation PR: the serial-vs-pool pins above are special
// cases of a stronger property — folding K per-shard sinks in fixed shard
// order yields the same registry and span trace for ANY K, because counters
// and buckets add, gauges take maxima, and span ids are reassigned in merge
// order. Each work unit records a self-contained span tree (root + two
// children), so any contiguous partition keeps parent links shard-local and
// the id remap lands identically.
void record_shard_unit(obs::Registry& reg, obs::SpanTracer& spans,
                       std::size_t u) {
  reg.counter("events.total").add(1);
  reg.counter_family("events.by_lane", {"lane"})
      .with({std::to_string(u % 7)})
      .add(u % 3 + 1);
  reg.gauge("events.peak").max_of(static_cast<double>(u % 13));
  reg.histogram("events.size", {1.0, 2.0, 4.0, 8.0})
      .observe(static_cast<double>((u * 37) % 16));
  reg.sketch("events.wait").observe(0.25 * static_cast<double>(u % 29) + 0.01);
  reg.sketch_family("events.lane_wait", {"lane"})
      .with({std::to_string(u % 3)})
      .observe(0.5 * static_cast<double>(u % 11) + 0.02);

  obs::Span root;
  root.start_min = static_cast<double>(u);
  root.end_min = static_cast<double>(u) + 3.0;
  root.phase = obs::SpanPhase::kRegionSession;
  root.client = u + 1;
  root.value = static_cast<double>(u % 5);
  const auto id = spans.record(root);
  obs::Span tune;
  tune.parent = id;
  tune.start_min = root.start_min;
  tune.end_min = root.start_min + 1.0;
  tune.phase = obs::SpanPhase::kTune;
  tune.client = u + 1;
  spans.record(tune);
  obs::Span hop;
  hop.parent = id;
  hop.start_min = root.start_min + 1.0;
  hop.end_min = root.start_min + 1.5;
  hop.phase = obs::SpanPhase::kReroute;
  hop.client = u + 1;
  spans.record(hop);
}

TEST(ShardMergeTest, KWayFoldIsIdenticalForAnyShardCount) {
  constexpr std::size_t kUnits = 120;
  const auto fold = [](std::size_t shards) {
    obs::Registry merged;
    obs::SpanTracer merged_spans(4096);
    for (std::size_t j = 0; j < shards; ++j) {
      obs::Registry reg;
      obs::SpanTracer spans(4096);
      const std::size_t begin = j * kUnits / shards;
      const std::size_t end = (j + 1) * kUnits / shards;
      for (std::size_t u = begin; u < end; ++u) {
        record_shard_unit(reg, spans, u);
      }
      merged.merge_from(reg);
      merged_spans.merge_from(spans);
    }
    return std::pair(merged.to_json() + "\n" + merged.to_openmetrics(),
                     merged_spans.to_jsonl());
  };

  const auto baseline = fold(1);
  for (const std::size_t shards : {2UL, 3UL, 5UL, 8UL}) {
    const auto folded = fold(shards);
    EXPECT_EQ(folded.first, baseline.first) << "K=" << shards;
    EXPECT_EQ(folded.second, baseline.second) << "K=" << shards;
  }
}

}  // namespace
}  // namespace vodbcast
