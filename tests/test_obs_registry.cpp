#include "obs/metrics.hpp"

#include <gmock/gmock.h>
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/sink.hpp"
#include "obs/timer.hpp"
#include "schemes/skyscraper.hpp"
#include "sim/simulator.hpp"
#include "util/contracts.hpp"

namespace vodbcast::obs {
namespace {

TEST(CounterTest, StartsAtZeroAndAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0U);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42U);
}

TEST(GaugeTest, SetAddMax) {
  Gauge g;
  g.set(3.0);
  EXPECT_DOUBLE_EQ(g.value(), 3.0);
  g.add(-1.5);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
  g.max_of(10.0);
  EXPECT_DOUBLE_EQ(g.value(), 10.0);
  g.max_of(4.0);  // lower: no change
  EXPECT_DOUBLE_EQ(g.value(), 10.0);
}

TEST(HistogramTest, BucketsSamplesByUpperBound) {
  Histogram h({1.0, 10.0, 100.0});
  EXPECT_EQ(h.bucket_count(), 4U);  // 3 bounds + overflow
  h.observe(0.5);    // <= 1
  h.observe(1.0);    // <= 1 (bounds are inclusive)
  h.observe(5.0);    // <= 10
  h.observe(1000.0); // overflow
  EXPECT_EQ(h.bucket(0), 2U);
  EXPECT_EQ(h.bucket(1), 1U);
  EXPECT_EQ(h.bucket(2), 0U);
  EXPECT_EQ(h.bucket(3), 1U);
  EXPECT_EQ(h.count(), 4U);
  EXPECT_DOUBLE_EQ(h.sum(), 1006.5);
  EXPECT_DOUBLE_EQ(h.mean(), 1006.5 / 4.0);
}

TEST(HistogramTest, RejectsBadBounds) {
  EXPECT_THROW(Histogram({}), util::ContractViolation);
  EXPECT_THROW(Histogram({2.0, 1.0}), util::ContractViolation);
  EXPECT_THROW(Histogram({1.0, 1.0}), util::ContractViolation);
}

TEST(RegistryTest, SameNameReturnsSameInstrument) {
  Registry registry;
  Counter& a = registry.counter("x");
  Counter& b = registry.counter("x");
  EXPECT_EQ(&a, &b);
  a.add(7);
  EXPECT_EQ(b.value(), 7U);
  // Histogram bounds are fixed by the first creation.
  Histogram& h1 = registry.histogram("h", {1.0, 2.0});
  Histogram& h2 = registry.histogram("h", {9.0});
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h2.bounds().size(), 2U);
}

TEST(RegistryTest, SnapshotIsIsolatedFromLaterUpdates) {
  Registry registry;
  Counter& c = registry.counter("events");
  c.add(5);
  const Snapshot before = registry.snapshot();
  c.add(100);
  ASSERT_EQ(before.counters.size(), 1U);
  EXPECT_EQ(before.counters[0].first, "events");
  EXPECT_EQ(before.counters[0].second, 5U);  // unchanged by the later add
  const Snapshot after = registry.snapshot();
  EXPECT_EQ(after.counters[0].second, 105U);
}

TEST(RegistryTest, ConcurrentIncrementsAreLossless) {
  Registry registry;
  Counter& c = registry.counter("hot");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) {
        c.add();
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads * kPerThread));
}

TEST(RegistryTest, ConcurrentSketchObservesAreLossless) {
  // Four threads observe one Registry sketch over ~13 decades, so its
  // counter window grows and the bucket budget collapses while they race.
  // The final buckets depend only on the multiset of samples (the top
  // max_buckets indices keep their own counts, the lowest absorbs the
  // rest), so a serial sketch over the same samples must match exactly.
  Registry registry;
  QuantileSketch& sketch = registry.sketch("wait");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  const auto sample = [](int t, int i) {
    // Thread t sweeps its own slice of decades first, then all of them.
    const double decades = i < kPerThread / 4 ? 3.0 : 13.0;
    const double offset = i < kPerThread / 4 ? 3.0 * t - 6.0 : -6.0;
    const double u = static_cast<double>((i * 7919 + t * 104729) % 10007) /
                     10007.0;
    return i % 97 == 0 ? 0.0 : std::pow(10.0, offset + decades * u);
  };
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&sketch, &sample, t] {
      for (int i = 0; i < kPerThread; ++i) {
        sketch.observe(sample(t, i));
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  QuantileSketch serial;
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      serial.observe(sample(t, i));
    }
  }
  EXPECT_EQ(sketch.count(), static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_GT(sketch.collapsed(), 0U);
  EXPECT_EQ(sketch.buckets(), serial.buckets());
  EXPECT_EQ(sketch.zero_count(), serial.zero_count());
  EXPECT_DOUBLE_EQ(sketch.min(), serial.min());
  EXPECT_DOUBLE_EQ(sketch.max(), serial.max());
  EXPECT_NEAR(sketch.sum(), serial.sum(), serial.sum() * 1e-12);
  std::uint64_t mass = sketch.zero_count();
  for (const auto& [index, n] : sketch.buckets()) {
    mass += n;
  }
  EXPECT_EQ(mass, sketch.count());
}

TEST(RegistryTest, JsonExportIsStructurallySound) {
  Registry registry;
  registry.counter("sim.clients").add(3);
  registry.gauge("sim.rate").set(2.5);
  registry.histogram("sim.wait", {1.0, 2.0}).observe(1.5);
  const std::string json = registry.to_json();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"sim.clients\":3"), std::string::npos);
  EXPECT_NE(json.find("\"sim.rate\":2.5"), std::string::npos);
  EXPECT_NE(json.find("\"buckets\":[0,1,0]"), std::string::npos);
  // Balanced braces/brackets — cheap structural validity check.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(RegistryTest, CsvExportListsEveryInstrument) {
  Registry registry;
  registry.counter("a").add(1);
  registry.gauge("b").set(2.0);
  registry.histogram("c", {5.0}).observe(1.0);
  const std::string csv = registry.to_csv();
  EXPECT_NE(csv.find("kind,name,field,value"), std::string::npos);
  EXPECT_NE(csv.find("counter,a,value,1"), std::string::npos);
  EXPECT_NE(csv.find("gauge,b,value,2"), std::string::npos);
  EXPECT_NE(csv.find("histogram,c,count,1"), std::string::npos);
  EXPECT_NE(csv.find("le=+inf"), std::string::npos);
}

std::uint64_t counter_value(const Snapshot& snap, const std::string& name) {
  for (const auto& [n, v] : snap.counters) {
    if (n == name) {
      return v;
    }
  }
  ADD_FAILURE() << "no counter named " << name;
  return 0;
}

double gauge_value(const Snapshot& snap, const std::string& name) {
  for (const auto& [n, v] : snap.gauges) {
    if (n == name) {
      return v;
    }
  }
  ADD_FAILURE() << "no gauge named " << name;
  return 0.0;
}

const Snapshot::HistogramView* find_histogram(const Snapshot& snap,
                                              const std::string& name) {
  for (const auto& h : snap.histograms) {
    if (h.name == name) {
      return &h;
    }
  }
  return nullptr;
}

TEST(RegistryMergeTest, CountersAddGaugesMaxHistogramsBucketAdd) {
  Registry a;
  a.counter("served").add(10);
  a.gauge("peak").max_of(3.0);
  a.histogram("wait", {1.0, 10.0}).observe(0.5);

  Registry b;
  b.counter("served").add(5);
  b.gauge("peak").max_of(7.0);
  b.histogram("wait", {1.0, 10.0}).observe(5.0);
  b.histogram("wait", {1.0, 10.0}).observe(0.25);

  a.merge_from(b);
  const auto snap = a.snapshot();
  EXPECT_EQ(counter_value(snap, "served"), 15U);
  EXPECT_DOUBLE_EQ(gauge_value(snap, "peak"), 7.0);
  const auto* wait = find_histogram(snap, "wait");
  ASSERT_NE(wait, nullptr);
  EXPECT_EQ(wait->count, 3U);
  EXPECT_DOUBLE_EQ(wait->sum, 5.75);
  EXPECT_EQ(wait->buckets[0], 2U);  // 0.5 and 0.25 in the <= 1.0 bucket
  EXPECT_EQ(wait->buckets[1], 1U);  // 5.0 in the <= 10.0 bucket
  // The source is untouched.
  EXPECT_EQ(counter_value(b.snapshot(), "served"), 5U);
}

TEST(RegistryMergeTest, AdoptsInstrumentsMissingFromTarget) {
  Registry a;
  Registry b;
  b.counter("only_in_b").add(3);
  b.gauge("g").set(2.5);
  b.histogram("h", {1.0}).observe(0.5);
  a.merge_from(b);
  const auto snap = a.snapshot();
  EXPECT_EQ(counter_value(snap, "only_in_b"), 3U);
  EXPECT_DOUBLE_EQ(gauge_value(snap, "g"), 2.5);
  const auto* h = find_histogram(snap, "h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 1U);
}

TEST(RegistryMergeTest, RejectsMismatchedHistogramBounds) {
  Registry a;
  a.histogram("h", {1.0, 2.0}).observe(0.5);
  Registry b;
  b.histogram("h", {1.0, 3.0}).observe(0.5);
  // Caller-facing validation, not a programming-contract check: the message
  // names the metric and the reason.
  try {
    a.merge_from(b);
    FAIL() << "mismatched bounds must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_THAT(e.what(), testing::HasSubstr("metric 'h'"));
    EXPECT_THAT(e.what(), testing::HasSubstr("bucket bounds mismatch"));
  }
  EXPECT_THROW(a.merge_from(a), util::ContractViolation);  // self-merge
}

TEST(RegistryMergeTest, RejectsMismatchedSketchAccuracy) {
  Registry a;
  a.sketch("s", {.relative_accuracy = 0.01}).observe(1.0);
  Registry b;
  b.sketch("s", {.relative_accuracy = 0.05}).observe(1.0);
  try {
    a.merge_from(b);
    FAIL() << "mismatched accuracy must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_THAT(e.what(), testing::HasSubstr("metric 's'"));
    EXPECT_THAT(e.what(), testing::HasSubstr("relative accuracy mismatch"));
  }
}

TEST(RegistryMergeTest, RejectsKindClashAcrossRegistries) {
  Registry a;
  a.counter("m").add(1);
  Registry b;
  b.gauge("m").set(2.0);
  EXPECT_THROW(a.merge_from(b), std::invalid_argument);
}

TEST(RegistryMergeTest, ShardOrderFoldIsDeterministic) {
  // Folding per-worker registries in a fixed shard order must give the same
  // snapshot regardless of how work was distributed across the shards.
  Registry shard1;
  Registry shard2;
  shard1.counter("n").add(1);
  shard2.counter("n").add(2);
  shard1.gauge("peak").max_of(4.0);
  shard2.gauge("peak").max_of(9.0);

  Registry fold_a;
  fold_a.merge_from(shard1);
  fold_a.merge_from(shard2);
  Registry fold_b;
  fold_b.merge_from(shard2);
  fold_b.merge_from(shard1);
  EXPECT_EQ(fold_a.to_json(), fold_b.to_json());
}

TEST(TracerMergeTest, ReRecordsRetainedEventsInTimeOrder) {
  Tracer worker(8);
  worker.record({.sim_time_min = 2.0,
                 .kind = EventKind::kTuneIn,
                 .channel = 1,
                 .video = 5,
                 .client = 1,
                 .value = 0.5});
  worker.record({.sim_time_min = 1.0,
                 .kind = EventKind::kClientArrival,
                 .channel = 0,
                 .video = 5,
                 .client = 1,
                 .value = 0.0});
  Tracer main(8);
  main.merge_from(worker);
  const auto events = main.events();
  ASSERT_EQ(events.size(), 2U);
  EXPECT_DOUBLE_EQ(events[0].sim_time_min, 1.0);
  EXPECT_DOUBLE_EQ(events[1].sim_time_min, 2.0);
  EXPECT_EQ(main.dropped(), 0U);
}

TEST(ScopedTimerTest, RecordsOnceIntoTarget) {
  Registry registry;
  Histogram& h = registry.histogram("t", default_time_bounds_ns());
  {
    const ScopedTimer timer(&h);
  }
  EXPECT_EQ(h.count(), 1U);
  EXPECT_GE(h.sum(), 0.0);
}

TEST(ScopedTimerTest, NullTargetIsANoOp) {
  const ScopedTimer timer(nullptr);  // must not crash or allocate
}

// Null-sink zero-effect: the same seeded simulation must produce an
// identical report with and without observability attached.
TEST(NullSinkTest, SimulationReportUnchangedBySink) {
  const schemes::SkyscraperScheme sb(52);
  const schemes::DesignInput input{
      core::MbitPerSec{300.0}, 10,
      core::VideoParams{core::Minutes{120.0}, core::MbitPerSec{1.5}}};
  sim::SimulationConfig config;
  config.horizon = core::Minutes{60.0};
  config.arrivals_per_minute = 2.0;
  config.plan_clients = true;

  const auto plain = sim::simulate(sb, input, config);

  Sink sink;
  config.sink = &sink;
  const auto observed = sim::simulate(sb, input, config);

  EXPECT_EQ(plain.clients_served, observed.clients_served);
  EXPECT_EQ(plain.jitter_events, observed.jitter_events);
  EXPECT_EQ(plain.max_concurrent_downloads,
            observed.max_concurrent_downloads);
  EXPECT_DOUBLE_EQ(plain.latency_minutes.mean(),
                   observed.latency_minutes.mean());
  EXPECT_DOUBLE_EQ(plain.latency_minutes.max(),
                   observed.latency_minutes.max());

  // And the sink actually saw the run.
  const auto snap = sink.metrics.snapshot();
  bool found_clients = false;
  for (const auto& [name, value] : snap.counters) {
    if (name == "sim.clients_served") {
      EXPECT_EQ(value, observed.clients_served);
      found_clients = true;
    }
  }
  EXPECT_TRUE(found_clients);
  EXPECT_GT(sink.trace.recorded(), 0U);
}

}  // namespace
}  // namespace vodbcast::obs
