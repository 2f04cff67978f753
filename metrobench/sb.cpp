// sb_metro: the ROADMAP baseline SB head end, one sim::simulate campaign per
// run with no sink attached.
//
// The traced run replays simulate() from outside with the same public
// calls in the same order — RequestGenerator, EventQueue::schedule/step,
// BroadcastServer::next_segment_start, PlanCache::at and Distribution::add —
// so its report must equal the clean run's bit for bit before its per-layer
// split is believed. It then replays the sink-attached twin, making the same
// obs record calls simulate() makes with a sink, for the obs.* metrics; that
// replay must record exactly what a real sink-attached run records.
#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <stdexcept>

#include "campaign.hpp"
#include "client/plan_cache.hpp"
#include "obs/sink.hpp"
#include "obs/timer.hpp"
#include "schemes/skyscraper.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "workload/request.hpp"
#include "workload/zipf.hpp"

namespace metrobench {

namespace {

using namespace vodbcast;

// 2.4 Gb/s over 20 titles gives each an 80-channel skyscraper (W=52);
// 2000 arrivals/min over 600 min is about 1.2M arrivals.
constexpr std::uint64_t kWidth = 52;
constexpr double kBandwidthMbps = 2400.0;
constexpr int kTitles = 20;
constexpr double kArrivalsPerMinute = 2000.0;
constexpr double kHorizonMin = 600.0;
constexpr std::size_t kStatsCap = 65536;
// The CLI's --trace-limit and --spans-limit defaults.
constexpr std::size_t kRingCapacity = 65536;
// Tune-in phases are uniform, so the mean wait is D1/2; at 1.2M arrivals
// its standard error is under 0.03% of D1.
constexpr double kMeanTolerance = 0.01;

/// What the obs side of a run recorded; the replay must record the same.
struct ObsCounts {
  std::uint64_t trace_recorded = 0;
  std::uint64_t spans_recorded = 0;
  std::uint64_t clients = 0;
  std::uint64_t plan_hits = 0;
  std::uint64_t plan_misses = 0;
  std::uint64_t events_fired = 0;

  bool operator==(const ObsCounts&) const = default;
};

ObsCounts obs_counts(obs::Sink& sink) {
  return ObsCounts{
      .trace_recorded = sink.trace.recorded(),
      .spans_recorded = sink.spans.recorded(),
      .clients = sink.metrics.counter("sim.clients_served").value(),
      .plan_hits = sink.metrics.counter("sim.plan_cache.hits").value(),
      .plan_misses = sink.metrics.counter("sim.plan_cache.misses").value(),
      .events_fired = sink.metrics.counter("sim.event_queue.fired").value(),
  };
}

std::string digest(const sim::SimulationReport& r) {
  Digest d;
  d.add(r.scheme)
      .add(r.clients_served)
      .add(r.jitter_events)
      .add(static_cast<std::uint64_t>(r.max_concurrent_downloads))
      .add(r.peak_server_rate.v)
      .add(r.latency_minutes)
      .add(r.buffer_peak_mbits)
      .add(r.fault_hits)
      .add(r.fault_repairs)
      .add(r.fault_degraded);
  return d.hex();
}

/// simulate()'s channel-slot trace: the first 16 slots of every stream.
void trace_channel_slots(obs::Sink& sink,
                                  const channel::ChannelPlan& plan,
                                  double horizon) {
  constexpr int kSlotsPerStream = 16;
  for (const auto& stream : plan.streams()) {
    double start = stream.phase.v;
    for (int i = 0; i < kSlotsPerStream && start < horizon; ++i) {
      sink.trace.record(obs::TraceEvent{
          .sim_time_min = start,
          .kind = obs::EventKind::kChannelSlotStart,
          .channel = stream.logical_channel,
          .video = stream.video,
          .client = 0,
          .value = stream.transmission.v,
      });
      start += stream.period.v;
    }
  }
}

/// simulate()'s per-client reception trace: two events and one span per
/// planned download.
void trace_reception(obs::Sink& sink, const client::PlanView& plan,
                     double d1, core::VideoId video, std::uint64_t client,
                     std::uint64_t session_span) {
  for (std::size_t i = 0; i < plan.download_count(); ++i) {
    const auto d = plan.download(i);
    const double start_min = static_cast<double>(d.start) * d1;
    const double length_min = static_cast<double>(d.length) * d1;
    sink.trace.record(obs::TraceEvent{
        .sim_time_min = start_min,
        .kind = obs::EventKind::kSegmentDownloadStart,
        .channel = d.segment,
        .video = video,
        .client = client,
        .value = length_min,
    });
    sink.trace.record(obs::TraceEvent{
        .sim_time_min = start_min + length_min,
        .kind = obs::EventKind::kSegmentDownloadEnd,
        .channel = d.segment,
        .video = video,
        .client = client,
        .value = 0.0,
    });
    sink.spans.record(obs::Span{
        .parent = session_span,
        .start_min = start_min,
        .end_min = start_min + length_min,
        .phase = obs::SpanPhase::kSegmentDownload,
        .channel = d.segment,
        .video = video,
        .client = client,
        .value = length_min,
        .label = {},
    });
  }
}

schemes::Evaluation require_feasible(
    const std::optional<schemes::Evaluation>& evaluation) {
  if (!evaluation.has_value()) {
    throw std::runtime_error("SB:W=52 is infeasible at 2400 Mb/s");
  }
  return *evaluation;
}

class SbCampaign final : public Campaign {
 public:
  explicit SbCampaign(std::uint64_t seed)
      : seed_(seed),
        scheme_(kWidth),
        input_{.server_bandwidth = core::MbitPerSec{kBandwidthMbps},
               .num_videos = kTitles,
               .video = core::VideoParams{core::Minutes{120.0},
                                          core::MbitPerSec{1.5}}},
        evaluation_(require_feasible(scheme_.evaluate(input_))),
        server_(scheme_.plan(input_, evaluation_.design)),
        layout_(scheme_.layout(input_, evaluation_.design)),
        popularity_(workload::zipf_probabilities(kTitles)) {}

  [[nodiscard]] unsigned threads() const override { return 1; }

  Outcome run() override {
    Outcome out;
    const auto config = campaign_config();
    const std::int64_t t0 = now_ns();
    const auto report = sim::simulate(scheme_, input_, config);
    out.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
    check(report, out);
    return out;
  }

  Traced run_traced(const Outcome& clean, Ledger& ledger) override {
    Traced traced = replay(clean, ledger, nullptr);

    // The sink-attached twin, as `vodbcast simulate --metrics-out
    // --spans-out` attaches it. A sink must not change the report, and the
    // replay must record what the real run records.
    obs::Sink real_sink(kRingCapacity, kRingCapacity);
    auto config = campaign_config();
    config.sink = &real_sink;
    Outcome real;
    check(sim::simulate(scheme_, input_, config), real);
    if (real.digest != clean.digest) {
      real.fail_all("attaching a sink changed the report");
    }
    const ObsCounts expected = obs_counts(real_sink);
    if (expected.clients != real.arrivals ||
        expected.plan_hits + expected.plan_misses != real.arrivals) {
      real.fail_all("sink counters disagree with clients_served");
    }
    obs::Sink sink(kRingCapacity, kRingCapacity);
    Ledger obs_ledger;
    Traced observed = replay(clean, obs_ledger, &sink);
    if (obs_counts(sink) != expected) {
      observed.outcome.fail_all("the observed replay recorded different obs "
                                "totals than the real sink");
    }
    for (const Outcome* o : {&real, &observed.outcome}) {
      traced.outcome.arrivals += o->arrivals;
      traced.outcome.failed += o->failed;
      traced.outcome.violations.insert(traced.outcome.violations.end(),
                                       o->violations.begin(),
                                       o->violations.end());
    }
    for (const auto& [name, value] : observed.layers) {
      if (name.starts_with("obs.")) {
        traced.layers[name] = value;
      }
    }
    return traced;
  }

 private:
  sim::SimulationConfig campaign_config() const {
    sim::SimulationConfig config;
    config.horizon = core::Minutes{kHorizonMin};
    config.arrivals_per_minute = kArrivalsPerMinute;
    config.seed = seed_;
    config.plan_clients = true;
    config.plan_cache = true;
    config.stats_sample_cap = kStatsCap;
    return config;
  }

  /// simulate() replayed under the ledger; with a sink, also the record
  /// calls simulate() makes into it.
  Traced replay(const Outcome& clean, Ledger& ledger, obs::Sink* sink) {
    Traced traced;
    const std::int64_t t0 = now_ns();
    // Instrument updates (counter adds, histogram and sketch observes) the
    // replay makes; trace and span records are counted by the rings.
    std::uint64_t updates = 0;
    std::uint64_t sketch_observes = 0;
    obs::ScopedTimer run_timer(
        sink != nullptr ? &sink->metrics.histogram(
                              "sim.simulate_ns", obs::default_time_bounds_ns())
                        : nullptr);

    sim::SimulationReport report;
    report.scheme = scheme_.name();
    report.peak_server_rate = server_.plan().peak_aggregate_rate();
    report.latency_minutes.set_sample_cap(kStatsCap);
    report.buffer_peak_mbits.set_sample_cap(kStatsCap);
    report.fault_penalty_minutes.set_sample_cap(kStatsCap);

    obs::Counter* clients_counter = nullptr;
    obs::Counter* jitter_counter = nullptr;
    obs::Histogram* wait_hist = nullptr;
    obs::Histogram* plan_ns = nullptr;
    obs::Histogram* plan_cache_hit_ns = nullptr;
    obs::QuantileSketch* wait_sketch = nullptr;
    std::vector<obs::QuantileSketch*> title_wait;
    if (sink != nullptr) {
      const Ledger::Scope scope(ledger, Layer::kObs);
      sink->metrics.gauge("sim.peak_server_rate_mbps")
          .max_of(report.peak_server_rate.v);
      trace_channel_slots(*sink, server_.plan(), kHorizonMin);
      auto& util_family = sink->metrics.gauge_family(
          "sim.channel.utilization", {"channel"},
          server_.plan().streams().size() + 1);
      std::map<int, double> duty;
      for (const auto& stream : server_.plan().streams()) {
        duty[stream.logical_channel] +=
            stream.transmission.v / stream.period.v;
      }
      for (const auto& [channel, utilization] : duty) {
        util_family.with_ids({static_cast<std::uint64_t>(channel)})
            .max_of(std::min(utilization, 1.0));
        ++updates;
      }
      clients_counter = &sink->metrics.counter("sim.clients_served");
      jitter_counter = &sink->metrics.counter("sim.jitter_events");
      wait_hist = &sink->metrics.histogram("sim.tune_wait_min",
                                           obs::default_latency_bounds_min());
      wait_sketch = &sink->metrics.sketch("sim.tune_wait_sketch_min");
      auto& wait_family = sink->metrics.sketch_family(
          "sb.client.wait", {"title"}, {},
          static_cast<std::size_t>(kTitles) + 1);
      title_wait.resize(static_cast<std::size_t>(kTitles), nullptr);
      for (std::size_t v = 0; v < title_wait.size(); ++v) {
        title_wait[v] = &wait_family.with_ids({v});
      }
      plan_ns = &sink->metrics.histogram("client.plan_reception_ns",
                                         obs::default_time_bounds_ns());
      plan_cache_hit_ns = &sink->metrics.histogram(
          "client.plan_cache_hit_ns", obs::default_time_bounds_ns());
    }

    std::optional<client::PlanCache> cache;
    {
      const Ledger::Scope scope(ledger, Layer::kClient);
      cache.emplace(layout_);
    }
    const double d1 = layout_.unit_duration().v;
    std::uint64_t missing_start = 0;

    const auto handle_arrival = [&](const workload::Request& request) {
      const std::uint64_t client = report.clients_served + 1;
      ledger.set_session(client);
      std::optional<core::Minutes> start;
      {
        const Ledger::Scope scope(ledger, Layer::kServer);
        start = server_.next_segment_start(request.video, 1, request.arrival);
      }
      if (!start.has_value()) {
        ++missing_start;
        return;
      }
      const double wait = start->v - request.arrival.v;
      {
        const Ledger::Scope scope(ledger, Layer::kStats);
        report.latency_minutes.add(wait);
      }
      ++report.clients_served;
      std::uint64_t session_span = 0;
      if (sink != nullptr) {
        const Ledger::Scope scope(ledger, Layer::kObs);
        clients_counter->add();
        wait_hist->observe(wait);
        wait_sketch->observe(wait);
        title_wait[static_cast<std::size_t>(request.video)]->observe(wait);
        updates += 4;
        sketch_observes += 2;
        sink->trace.record(obs::TraceEvent{
            .sim_time_min = request.arrival.v,
            .kind = obs::EventKind::kClientArrival,
            .channel = 0,
            .video = request.video,
            .client = client,
            .value = 0.0,
        });
        sink->trace.record(obs::TraceEvent{
            .sim_time_min = start->v,
            .kind = obs::EventKind::kTuneIn,
            .channel = 0,
            .video = request.video,
            .client = client,
            .value = wait,
        });
        const double session_end = start->v + input_.video.duration.v;
        session_span = sink->spans.record(obs::Span{
            .start_min = request.arrival.v,
            .end_min = session_end,
            .phase = obs::SpanPhase::kSession,
            .channel = 0,
            .video = request.video,
            .client = client,
            .value = wait,
            .label = {},
        });
        sink->spans.record(obs::Span{
            .parent = session_span,
            .start_min = request.arrival.v,
            .end_min = start->v,
            .phase = obs::SpanPhase::kTune,
            .channel = 0,
            .video = request.video,
            .client = client,
            .value = wait,
            .label = {},
        });
        sink->spans.record(obs::Span{
            .parent = session_span,
            .start_min = start->v,
            .end_min = session_end,
            .phase = obs::SpanPhase::kPlayback,
            .channel = 0,
            .video = request.video,
            .client = client,
            .value = input_.video.duration.v,
            .label = {},
        });
      }

      const auto slot = static_cast<std::uint64_t>(std::llround(start->v / d1));
      client::PlanView plan;
      double buffer_peak = 0.0;
      {
        const Ledger::Scope scope(ledger, Layer::kClient);
        const bool cached = cache->contains(slot);
        const obs::ScopedTimer plan_timer(cached ? plan_cache_hit_ns : plan_ns);
        plan = cache->at(slot);
        buffer_peak = plan.max_buffer(layout_).v;
      }
      if (sink != nullptr) {
        ++updates;  // the plan timer's observe
      }
      if (!plan.jitter_free()) {
        ++report.jitter_events;
        if (sink != nullptr) {
          const Ledger::Scope scope(ledger, Layer::kObs);
          jitter_counter->add();
          ++updates;
          sink->trace.record(obs::TraceEvent{
              .sim_time_min = start->v,
              .kind = obs::EventKind::kJitter,
              .channel = 0,
              .video = request.video,
              .client = client,
              .value = 0.0,
          });
        }
      }
      report.max_concurrent_downloads = std::max(
          report.max_concurrent_downloads, plan.max_concurrent_downloads());
      {
        const Ledger::Scope scope(ledger, Layer::kStats);
        report.buffer_peak_mbits.add(buffer_peak);
      }
      if (sink != nullptr) {
        const Ledger::Scope scope(ledger, Layer::kObs);
        trace_reception(*sink, plan, d1, request.video, client, session_span);
      }
    };

    sim::EventQueue events;
    events.attach_sink(sink);
    std::uint64_t requests = 0;
    std::uint64_t request_bytes = 0;
    {
      std::vector<workload::Request> stream;
      {
        const Ledger::Scope scope(ledger, Layer::kWorkload);
        workload::RequestGenerator generator(popularity_, kArrivalsPerMinute,
                                             util::Rng(seed_));
        stream = generator.generate_until(core::Minutes{kHorizonMin});
      }
      requests = stream.size();
      request_bytes = stream.capacity() * sizeof(workload::Request);
      // simulate() frees the request vector once it is scheduled; so does
      // the replay, to keep the same memory profile.
      std::uint64_t ordinal = 0;
      for (const auto& request : stream) {
        ledger.set_session(++ordinal);
        const Ledger::Scope scope(ledger, Layer::kEngine);
        events.schedule(request.arrival.v, [&handle_arrival, request] {
          handle_arrival(request);
        });
      }
    }
    const std::uint64_t pending_peak = events.pending();
    std::uint64_t fired = 0;
    for (;;) {
      const Ledger::Scope scope(ledger, Layer::kEngine);
      if (!events.step()) {
        break;
      }
      ++fired;
    }
    ledger.set_session(Ledger::kNoSession);

    const auto& cs = cache->stats();
    if (sink != nullptr) {
      const Ledger::Scope scope(ledger, Layer::kObs);
      sink->metrics.gauge("sim.max_concurrent_downloads")
          .max_of(static_cast<double>(report.max_concurrent_downloads));
      sink->metrics.counter("sim.plan_cache.hits").add(cs.hits);
      sink->metrics.counter("sim.plan_cache.misses").add(cs.misses);
      sink->metrics.gauge("sim.plan_cache.entries")
          .max_of(static_cast<double>(cs.entries));
      sink->metrics.gauge("sim.plan_cache.bytes")
          .max_of(static_cast<double>(cs.bytes));
      sink->metrics.counter("sim.stats.samples_folded")
          .add(report.latency_minutes.samples_folded() +
               report.buffer_peak_mbits.samples_folded() +
               report.fault_penalty_minutes.samples_folded());
      updates += 6;
    }
    Outcome& out = traced.outcome;
    out.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
    check(report, out);
    if (missing_start != 0) {
      out.fail_all("tune-in lookup found no segment-1 broadcast");
    }
    if (out.digest != clean.digest) {
      out.fail_all("traced replay report differs from the clean run");
    }

    auto& l = traced.layers;
    l["workload.requests"] = static_cast<double>(requests);
    l["workload.busy_s"] = ledger.busy_s(Layer::kWorkload);
    l["workload.request_bytes"] = static_cast<double>(request_bytes);
    l["sim.engine.scheduled"] = static_cast<double>(requests);
    l["sim.engine.fired"] = static_cast<double>(fired);
    l["sim.engine.busy_s"] = ledger.busy_s(Layer::kEngine);
    l["sim.engine.pending_peak"] = static_cast<double>(pending_peak);
    l["sim.engine.slab_slots"] = static_cast<double>(events.slab_slots());
    l["sim.server.lookups"] =
        static_cast<double>(ledger.calls(Layer::kServer));
    l["sim.server.busy_s"] = ledger.busy_s(Layer::kServer);
    const auto lookups = cs.hits + cs.misses;
    l["client.plan_lookups"] = static_cast<double>(lookups);
    l["client.plan_hits"] = static_cast<double>(cs.hits);
    l["client.plan_hit_ratio"] =
        lookups == 0 ? 0.0
                     : static_cast<double>(cs.hits) /
                           static_cast<double>(lookups);
    l["client.plan_busy_s"] = ledger.busy_s(Layer::kClient);
    l["client.plan_cache_bytes"] = static_cast<double>(cs.bytes);
    l["sim.stats.samples"] =
        static_cast<double>(report.latency_minutes.count() +
                            report.buffer_peak_mbits.count());
    l["sim.stats.folded"] =
        static_cast<double>(report.latency_minutes.samples_folded() +
                            report.buffer_peak_mbits.samples_folded());
    l["sim.stats.busy_s"] = ledger.busy_s(Layer::kStats);
    l["sim.stats.retained_bytes"] =
        static_cast<double>(report.latency_minutes.retained_bytes() +
                            report.buffer_peak_mbits.retained_bytes());
    if (sink != nullptr) {
      const auto recorded = sink->trace.recorded() + sink->spans.recorded();
      const auto retained = sink->trace.size() + sink->spans.size();
      l["obs.record_calls"] = static_cast<double>(recorded + updates);
      l["obs.records_retained"] = static_cast<double>(retained);
      l["obs.retained_ratio"] =
          static_cast<double>(retained) / static_cast<double>(recorded);
      l["obs.sketch_observes"] = static_cast<double>(sketch_observes);
      l["obs.busy_s"] = ledger.busy_s(Layer::kObs);
    }
    l["trace.overhead_s"] = out.wall_s - clean.wall_s;
    l["trace.unattributed_s"] = out.wall_s - ledger.total_busy_s();
    return traced;
  }

  /// The contract every SB campaign must meet: no jitter, every wait in
  /// [0, D1], mean wait near D1/2.
  void check(const sim::SimulationReport& report, Outcome& out) const {
    out.arrivals = report.clients_served;
    out.digest = digest(report);
    const double d1 = evaluation_.metrics.access_latency.v;
    const auto& waits = report.latency_minutes;
    if (waits.empty()) {
      out.fail_all("no client was served");
      return;
    }
    if (report.jitter_events != 0) {
      out.failed += report.jitter_events;
      out.violations.push_back("jitter events in an SB campaign");
    }
    if (waits.min() < 0.0 || waits.max() > d1 * (1.0 + 1e-9)) {
      out.fail_all("a tune-in wait lies outside [0, D1]");
    }
    if (std::abs(waits.mean() - d1 / 2.0) > kMeanTolerance * d1) {
      out.fail_all("mean tune-in wait is not D1/2");
    }
  }

  std::uint64_t seed_;
  schemes::SkyscraperScheme scheme_;
  schemes::DesignInput input_;
  schemes::Evaluation evaluation_;
  sim::BroadcastServer server_;
  series::SegmentLayout layout_;
  std::vector<double> popularity_;
};

}  // namespace

std::unique_ptr<Campaign> make_sb_metro(std::uint64_t seed) {
  return std::make_unique<SbCampaign>(seed);
}

}  // namespace metrobench
