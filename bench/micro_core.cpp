// google-benchmark microbenchmarks for the library's hot paths: series
// generation, reception planning, the exhaustive phase sweep, the
// simulator's per-arrival tune-in and stats steps, the metro federation's
// router and broadcast tune wait, and the end-to-end simulator inner loop.
#include <benchmark/benchmark.h>
#include <malloc.h>
#include <sys/resource.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "batching/queue_policies.hpp"
#include "client/client_session.hpp"
#include "client/reception_plan.hpp"
#include "ctrl/adaptive.hpp"
#include "metro/placement.hpp"
#include "metro/router.hpp"
#include "metro/topology.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "schemes/registry.hpp"
#include "schemes/skyscraper.hpp"
#include "series/broadcast_series.hpp"
#include "sim/broadcast_server.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"
#include "workload/request.hpp"
#include "workload/zipf.hpp"

#include "harness/gbench_bridge.hpp"

namespace {

using namespace vodbcast;

const core::VideoParams kVideo{core::Minutes{120.0}, core::MbitPerSec{1.5}};

void BM_SkyscraperSeriesPrefix(benchmark::State& state) {
  const auto k = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const series::SkyscraperSeries law;  // fresh memo each iteration
    benchmark::DoNotOptimize(law.prefix_sum(k, 52));
  }
}
BENCHMARK(BM_SkyscraperSeriesPrefix)->Arg(10)->Arg(40)->Arg(80);

// The full planner and the group planner on the same W=52 layouts, t0
// cycling over the layout's 3900 phases: one iteration of each is one
// first-visit fill of a PlanCache entry before and after plan_summary
// (K = 80 is the metro campaign's layout).
void BM_PlanReception(benchmark::State& state) {
  const series::SkyscraperSeries law;
  const series::SegmentLayout layout(
      law, static_cast<int>(state.range(0)), 52, kVideo);
  const std::uint64_t period = *client::phase_period(layout, 1 << 16);
  std::uint64_t t0 = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(client::plan_reception(layout, t0++ % period));
  }
}
BENCHMARK(BM_PlanReception)->Arg(10)->Arg(20)->Arg(40)->Arg(80);

void BM_PlanSummary(benchmark::State& state) {
  const series::SkyscraperSeries law;
  const series::SegmentLayout layout(
      law, static_cast<int>(state.range(0)), 52, kVideo);
  const std::uint64_t period = *client::phase_period(layout, 1 << 16);
  std::uint64_t t0 = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(client::plan_summary(layout, t0++ % period));
  }
}
BENCHMARK(BM_PlanSummary)->Arg(10)->Arg(20)->Arg(40)->Arg(80);

void BM_WorstCaseSweep(benchmark::State& state) {
  const series::SkyscraperSeries law;
  const series::SegmentLayout layout(law, 10, 12, kVideo);
  for (auto _ : state) {
    benchmark::DoNotOptimize(client::worst_case_over_phases(layout, 256));
  }
}
BENCHMARK(BM_WorstCaseSweep);

void BM_ClientSessionSlotSim(benchmark::State& state) {
  const series::SkyscraperSeries law;
  const series::SegmentLayout layout(
      law, static_cast<int>(state.range(0)), 12, kVideo);
  std::uint64_t t0 = 0;
  for (auto _ : state) {
    client::ClientSession session(layout, t0++ % 24);
    benchmark::DoNotOptimize(session.run());
  }
}
BENCHMARK(BM_ClientSessionSlotSim)->Arg(8)->Arg(12);

// Event-churn microbenchmarks for the discrete-event engine: schedule a
// batch of small-capture events and drain it. The queue outlives the
// iteration so its heap, callback and free-slot vectors stay warm, and the
// 16-byte capture fits std::function's local buffer: steady state is
// allocation-free.
void BM_EventQueueChurn(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  sim::EventQueue q;
  std::uint64_t acc = 0;
  double t = 0.0;
  for (auto _ : state) {
    for (int i = 0; i < batch; ++i) {
      q.schedule(t + 0.25 * static_cast<double>(i),
                 [&acc, i] { acc += static_cast<std::uint64_t>(i); });
    }
    while (q.step()) {
    }
    t = q.now() + 1.0;
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_EventQueueChurn)->Arg(64)->Arg(4096);

// Same churn with a 72-byte capture, past std::function's 16-byte local
// buffer: every event pays one allocation, isolating what the buffer saves.
void BM_EventQueueChurnSpill(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  sim::EventQueue q;
  std::uint64_t acc = 0;
  double t = 0.0;
  std::array<std::uint64_t, 8> payload{};  // 64 bytes: always allocates
  for (auto _ : state) {
    for (int i = 0; i < batch; ++i) {
      payload[0] = static_cast<std::uint64_t>(i);
      q.schedule(t + 0.25 * static_cast<double>(i),
                 [&acc, payload] { acc += payload[0]; });
    }
    while (q.step()) {
    }
    t = q.now() + 1.0;
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_EventQueueChurnSpill)->Arg(64);

// Self-scheduling cascade: each callback arms the next, the schedule-from-
// inside-a-callback pattern of the batching server's channel-free events.
// Chain's 24-byte capture allocates per event; the batching server's
// 16-byte one does not.
void BM_EventQueueCascade(benchmark::State& state) {
  sim::EventQueue q;
  std::uint64_t fired = 0;
  for (auto _ : state) {
    struct Chain {
      sim::EventQueue* q;
      std::uint64_t* fired;
      int left;
      void operator()() const {
        ++*fired;
        if (left > 0) {
          q->schedule(q->now() + 0.5, Chain{q, fired, left - 1});
        }
      }
    };
    q.schedule(q.now() + 0.5, Chain{&q, &fired, 511});
    while (q.step()) {
    }
  }
  benchmark::DoNotOptimize(fired);
}
BENCHMARK(BM_EventQueueCascade);

// A/B partner of BM_EventQueueChurn: the same arrival times pulled through
// run_until's arrival feed instead of scheduled into the heap, with one
// server event per 8 arrivals interleaving (the batch-completion shape of
// the scheduled-multicast server and the control plane).
void BM_EventQueueFeed(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  struct Feed {
    double base;
    int count;
    int next = 0;
    [[nodiscard]] double next_at() const {
      return next < count ? base + 0.25 * static_cast<double>(next)
                          : std::numeric_limits<double>::infinity();
    }
    int pop() { return next++; }
  };
  sim::EventQueue q;
  std::uint64_t acc = 0;
  for (auto _ : state) {
    Feed feed{.base = q.now() + 1.0, .count = batch};
    q.run_until(feed.base + 0.25 * static_cast<double>(batch) + 2.0, feed,
                [&q, &acc](int i) {
                  acc += static_cast<std::uint64_t>(i);
                  if (i % 8 == 0) {
                    q.schedule(q.now() + 1.0, [&acc] { ++acc; });
                  }
                });
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_EventQueueFeed)->Arg(64)->Arg(4096);

// sb_metro's head end: SB:W=52 carrying 20 titles at 2400 Mb/s.
const schemes::SkyscraperScheme kMetroSb(52);
const schemes::DesignInput kMetroInput{core::MbitPerSec{2400.0}, 20, kVideo};

// One tune-in lookup per iteration on the metro plan, over a ring of
// pre-drawn Zipf-skewed arrivals, so the time is the index and the replica
// walk, not the draw.
void BM_TuneIn(benchmark::State& state) {
  const auto design = kMetroSb.design(kMetroInput);
  const sim::BroadcastServer server(kMetroSb.plan(kMetroInput, *design));
  workload::RequestGenerator gen(workload::zipf_probabilities(20), 2000.0,
                                 util::Rng(5));
  std::vector<workload::Request> ring(4096);
  for (auto& request : ring) {
    request = gen.next();
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& request = ring[i++ & 4095];
    benchmark::DoNotOptimize(
        server.next_segment_start(request.video, 1, request.arrival));
  }
}
BENCHMARK(BM_TuneIn);

// One add per iteration into a report distribution that already crossed
// sb_metro's 65536-sample cap, so every add goes to the folded sketch;
// waits are uniform in [0, D1] of the metro plan, as tune-in waits are.
void BM_DistributionAddFolded(benchmark::State& state) {
  const auto design = kMetroSb.design(kMetroInput);
  const double d1 = kMetroSb.metrics(kMetroInput, *design).access_latency.v;
  util::Rng rng(9);
  std::vector<double> ring(4096);
  for (auto& wait : ring) {
    wait = rng.next_double() * d1;
  }
  sim::Distribution waits;
  waits.set_sample_cap(65536);
  std::size_t i = 0;
  while (!waits.folded()) {
    waits.add(ring[i++ & 4095]);
  }
  for (auto _ : state) {
    waits.add(ring[i++ & 4095]);
  }
  benchmark::DoNotOptimize(waits.count());
}
BENCHMARK(BM_DistributionAddFolded);

// The hybrid_adaptive campaign (MQL tail, 600 Mb/s, 100 titles, 10 hot
// titles x 6 SB channels, 200 arrivals/min over 6000 min, a popularity
// flip at 3000 min, seed 11): its 1.2M served arrivals' waits, in the
// order the engine adds them, computed once.
const std::vector<double>& hybrid_campaign_waits() {
  static const std::vector<double> waits = [] {
    ctrl::AdaptiveConfig config;
    config.total_bandwidth = core::MbitPerSec{600.0};
    config.catalog_size = 100;
    config.hot_titles = 10;
    config.broadcast_channels_per_video = 6;
    config.arrivals_per_minute = 200.0;
    config.horizon = core::Minutes{6000.0};
    config.flip_at = core::Minutes{3000.0};
    config.seed = 11;
    return ctrl::simulate_adaptive(batching::MqlPolicy(), config)
        .wait_minutes.samples();
  }();
  return waits;
}

// One campaign's waits per iteration, added into a fresh exact
// distribution without (/0) and with (/1) the reserve the engine makes from
// its feed's count bound. minflt is the page faults per iteration. main()
// pins glibc's mmap threshold, so every store past 128 KB is a fresh
// mapping whether this case runs alone or after the others: /1 faults in
// each page of its reserve once (about 2.3k), /0 every buffer its doubling
// allocates (about 6.4k).
void BM_DistributionAddExact(benchmark::State& state) {
  const auto& waits = hybrid_campaign_waits();
  const std::size_t bound =
      workload::RequestFeed(
          workload::RequestGenerator({1.0}, 200.0, util::Rng(0)),
          core::Minutes{6000.0})
          .count_bound();
  rusage before{};
  getrusage(RUSAGE_SELF, &before);
  for (auto _ : state) {
    sim::Distribution distribution;
    if (state.range(0) == 1) {
      distribution.reserve(bound);
    }
    for (const double wait : waits) {
      distribution.add(wait);
    }
    benchmark::DoNotOptimize(distribution.count());
  }
  rusage after{};
  getrusage(RUSAGE_SELF, &after);
  state.counters["minflt"] =
      benchmark::Counter(static_cast<double>(after.ru_minflt - before.ru_minflt),
                         benchmark::Counter::kAvgIterations);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(waits.size()));
}
BENCHMARK(BM_DistributionAddExact)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

// The metro_federation campaign: 4 regions at 700/500/300/200 arrivals/min
// with 400/300/200/140 channels, link capacity 32 at 0.5 min/hop, the top
// 10 of 100 titles replicated on 6 SB channels each, seed 20260807.
const metro::Topology kMetroTopology({{700.0, 400},
                                      {500.0, 300},
                                      {300.0, 200},
                                      {200.0, 140}},
                                     32, core::Minutes{0.5});

// One Router::route call per iteration over the campaign's contended
// stream: its first 120 minutes of arrivals, drawn and k-way merged as
// metro::simulate_federation does, less the lit-origin head arrivals the
// federation never routes. The router starts over (untimed) at the end of
// the stream, since arrival times must not go back.
void BM_RouterRoute(benchmark::State& state) {
  const metro::PlacementSolver solver(100, workload::kPaperSkew);
  const metro::Placement placement = solver.solve(kMetroTopology, 10);
  const std::size_t n = kMetroTopology.size();
  std::vector<int> tail_slots(n);
  for (std::size_t r = 0; r < n; ++r) {
    tail_slots[r] = kMetroTopology.region(r).channels - 10 * 6;
  }
  util::SplitMix64 seeds(20260807);
  std::vector<workload::RequestFeed> feeds;
  for (std::size_t g = 0; g < n; ++g) {
    feeds.emplace_back(
        workload::RequestGenerator(solver.popularity(),
                                   kMetroTopology.region(g).arrivals_per_minute,
                                   util::Rng(seeds.next())),
        core::Minutes{120.0});
  }
  std::vector<metro::Arrival> stream;
  for (;;) {
    std::size_t next = n;
    for (std::size_t g = 0; g < n; ++g) {
      if (feeds[g].next_at() < (next == n ? HUGE_VAL : feeds[next].next_at())) {
        next = g;
      }
    }
    if (next == n) {
      break;
    }
    const auto req = feeds[next].pop();
    const metro::Arrival arrival{req.arrival, req.video,
                                 static_cast<std::uint32_t>(next)};
    if (!metro::uncontended(placement, nullptr, arrival)) {
      stream.push_back(arrival);
    }
  }
  auto router = std::make_unique<metro::Router>(kMetroTopology, placement,
                                                tail_slots,
                                                metro::RouterConfig{});
  std::size_t i = 0;
  for (auto _ : state) {
    if (i == stream.size()) {
      state.PauseTiming();
      router = std::make_unique<metro::Router>(kMetroTopology, placement,
                                               tail_slots,
                                               metro::RouterConfig{});
      i = 0;
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(router->route(stream[i++]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RouterRoute);

// The federation's broadcast tune wait over the campaign's arrival times
// (uniform in [0, 1200) min) against its D1: Arg 0 takes the remainder with
// std::fmod, Arg 1 with util::fmod_nonneg, which returns the same bits.
void BM_TuneWait(benchmark::State& state) {
  const double d1 = 120.0 / 27.0;  // SB:W=52 on 6 channels
  util::Rng rng(7);
  std::vector<double> ring(4096);
  for (auto& t : ring) {
    t = 1200.0 * rng.next_double();
  }
  const bool exact = state.range(0) == 1;
  state.SetLabel(exact ? "util::fmod_nonneg" : "std::fmod");
  std::size_t i = 0;
  for (auto _ : state) {
    const double t = ring[i++ & 4095];
    const double into = exact ? util::fmod_nonneg(t, d1) : std::fmod(t, d1);
    benchmark::DoNotOptimize(into == 0.0 ? 0.0 : d1 - into);
  }
}
BENCHMARK(BM_TuneWait)->Arg(0)->Arg(1);

void BM_SchemeEvaluation(benchmark::State& state) {
  const auto set = schemes::paper_figure_set();
  const schemes::DesignInput input{core::MbitPerSec{400.0}, 10, kVideo};
  for (auto _ : state) {
    for (const auto& scheme : set) {
      benchmark::DoNotOptimize(scheme->evaluate(input));
    }
  }
}
BENCHMARK(BM_SchemeEvaluation);

void BM_EndToEndSimulation(benchmark::State& state) {
  const schemes::SkyscraperScheme sb(52);
  const schemes::DesignInput input{core::MbitPerSec{300.0}, 10, kVideo};
  for (auto _ : state) {
    sim::SimulationConfig config;
    config.horizon = core::Minutes{30.0};
    config.arrivals_per_minute = 2.0;
    benchmark::DoNotOptimize(sim::simulate(sb, input, config));
  }
}
BENCHMARK(BM_EndToEndSimulation);

// A/B partner of BM_EndToEndSimulation: identical run with a live obs::Sink
// attached — which now wires the labeled families too (per-title wait
// sketches, per-channel utilization gauges). The no-sink variant must stay
// within noise of its pre-obs baseline (the null-sink path is one pointer
// test); the delta between the two *is* the cost of full metrics + tracing
// + label families, and the ≤2% overhead bar covers it.
void BM_EndToEndSimulationWithSink(benchmark::State& state) {
  const schemes::SkyscraperScheme sb(52);
  const schemes::DesignInput input{core::MbitPerSec{300.0}, 10, kVideo};
  obs::Sink sink;
  for (auto _ : state) {
    sim::SimulationConfig config;
    config.horizon = core::Minutes{30.0};
    config.arrivals_per_minute = 2.0;
    config.sink = &sink;
    benchmark::DoNotOptimize(sim::simulate(sb, input, config));
  }
}
BENCHMARK(BM_EndToEndSimulationWithSink);

// Third leg of the A/B: the sink again, plus per-client reception planning
// (plan_clients) so the full span taxonomy fires — a session/tune/playback
// tree per client and a segment_download span per planned download into the
// bounded SpanTracer ring. The delta over BM_EndToEndSimulationWithSink is
// the causal-span capture cost; the no-sink variant stays the ≤2% bar.
void BM_EndToEndSimulationWithSpans(benchmark::State& state) {
  const schemes::SkyscraperScheme sb(52);
  const schemes::DesignInput input{core::MbitPerSec{300.0}, 10, kVideo};
  obs::Sink sink;
  for (auto _ : state) {
    sim::SimulationConfig config;
    config.horizon = core::Minutes{30.0};
    config.arrivals_per_minute = 2.0;
    config.plan_clients = true;
    config.sink = &sink;
    benchmark::DoNotOptimize(sim::simulate(sb, input, config));
  }
  benchmark::DoNotOptimize(sink.spans.recorded());
}
BENCHMARK(BM_EndToEndSimulationWithSpans);

// The family hot path in isolation. Per request, sim::simulate's labeled
// wiring adds one cached-pointer indirection plus one sketch observe on top
// of the unlabeled sketch it already fed; family resolution itself happened
// once, cold, at setup. A/B of these two pins that the label *dimension*
// costs nothing measurable per observation — only the resolve is dear.
void BM_SketchObserveUnlabeled(benchmark::State& state) {
  obs::Registry registry;
  auto& sketch = registry.sketch("bench.wait");
  double v = 0.01;
  for (auto _ : state) {
    sketch.observe(v);
    v = v < 30.0 ? v * 1.01 : 0.01;
  }
}
BENCHMARK(BM_SketchObserveUnlabeled);

void BM_SketchObserveLabeledHot(benchmark::State& state) {
  obs::Registry registry;
  auto& family = registry.sketch_family("bench.wait", {"title"}, {}, 16);
  std::vector<obs::QuantileSketch*> hot;
  for (std::uint64_t title = 0; title < 8; ++title) {
    hot.push_back(&family.with_ids({title}));
  }
  double v = 0.01;
  std::size_t i = 0;
  for (auto _ : state) {
    hot[i++ & 7]->observe(v);
    v = v < 30.0 ? v * 1.01 : 0.01;
  }
}
BENCHMARK(BM_SketchObserveLabeledHot);

}  // namespace

int main(int argc, char** argv) {
  // glibc raises its mmap and trim thresholds as a process frees large
  // blocks, so a case's allocations would depend on what earlier cases
  // freed. Setting both to their start-up defaults turns that adjustment
  // off: a case reads the same alone as in the full binary.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  mallopt(M_TRIM_THRESHOLD, 128 * 1024);
  benchmark::Initialize(&argc, argv);
  vodbcast::bench::Session session("micro_core", argc, argv);
  return vodbcast::bench::run_gbench(session);
}
