#include "sim/simulator.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <span>
#include <vector>

#include "client/plan_cache.hpp"
#include "client/reception_plan.hpp"
#include "fault/injector.hpp"
#include "obs/log.hpp"
#include "sim/event_queue.hpp"
#include "obs/timer.hpp"
#include "schemes/skyscraper.hpp"
#include "util/contracts.hpp"
#include "workload/zipf.hpp"

namespace vodbcast::sim {

namespace {

/// Traces the first broadcast slots of every stream so a trace viewer shows
/// the channel layout alongside the client activity. Capped per stream: the
/// schedule is periodic, so a handful of periods carries the full pattern.
void trace_channel_slots(obs::Sink& sink, const channel::ChannelPlan& plan,
                         core::Minutes horizon) {
  constexpr int kSlotsPerStream = 16;
  for (const auto& stream : plan.streams()) {
    double start = stream.phase.v;
    for (int i = 0; i < kSlotsPerStream && start < horizon.v; ++i) {
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

/// A planned download a fault episode damaged, as recovery resolved it.
struct DamagedDownload {
  client::SegmentDownload download;  ///< in the arrival's absolute time
  fault::DownloadDamage damage;
  double penalty_min = 0.0;  ///< the repair's wait penalty; 0 if degraded
};

/// A walk of an arrival's downloads: the plan and, under a fault plan, the
/// damaged downloads in plan order. The run owns one and reuses it, so the
/// fold walks an arrival and consumes the walk before the next one.
struct WalkedPlan {
  client::PlanView plan;
  std::vector<DamagedDownload> damaged;
};

/// All that one arrival computes (paper Section 3.3): it tunes in at the
/// next segment-1 broadcast and, as a planned SB client, plays from slot
/// t0 under the two-loader reception plan. The step fills one per arrival
/// of a window; when a sink or a fault plan walks the downloads, the fold
/// fills in the summary from the walk.
struct ArrivalOutcome {
  workload::Request request;
  double start_min = 0.0;       ///< the joined segment-1 broadcast
  std::uint64_t t0 = 0;         ///< playback start slot (planned clients)
  client::PlanSummary summary;  ///< the plan's verdicts (planned clients)
};

}  // namespace

SimulationReport simulate(const schemes::BroadcastScheme& scheme,
                          const schemes::DesignInput& input,
                          const SimulationConfig& config) {
  VB_EXPECTS(config.horizon.v > 0.0);
  const auto design = scheme.design(input);
  VB_EXPECTS_MSG(design.has_value(), "scheme infeasible at this bandwidth");

  obs::Sink* sink = config.sink;
  const bool faults =
      config.injector != nullptr && !config.injector->plan().empty();
  // For SB clients we run the exact reception plan, and only its downloads
  // are assessed against a fault plan.
  const auto* sb = dynamic_cast<const schemes::SkyscraperScheme*>(&scheme);
  VB_EXPECTS_MSG(!faults || (sb != nullptr && config.plan_clients),
                 "a fault plan with episodes needs an SB scheme with "
                 "plan_clients set");
  obs::ScopedTimer run_timer(
      sink != nullptr
          ? &sink->metrics.histogram("sim.simulate_ns",
                                     obs::default_time_bounds_ns())
          : nullptr);

  BroadcastServer server(scheme.plan(input, *design));

  SimulationReport report;
  report.scheme = scheme.name();
  report.peak_server_rate = server.plan().peak_aggregate_rate();
  report.latency_minutes.set_sample_cap(config.stats_sample_cap);
  report.buffer_peak_mbits.set_sample_cap(config.stats_sample_cap);
  report.fault_penalty_minutes.set_sample_cap(config.stats_sample_cap);

  if (sink != nullptr) {
    obs::logf(obs::LogLevel::kDebug,
              "simulate: scheme=%s horizon=%.1fmin rate=%.2f/min",
              report.scheme.c_str(), config.horizon.v,
              config.arrivals_per_minute);
    // max_of, not set: several runs may share one sink (bench sweeps), and
    // a "peak" gauge should survive a later, smaller run.
    sink->metrics.gauge("sim.peak_server_rate_mbps")
        .max_of(report.peak_server_rate.v);
    trace_channel_slots(*sink, server.plan(), config.horizon);
    // Per-channel duty cycle of the periodic schedule: each stream occupies
    // its logical channel for transmission/period of the time, and
    // subchannels of one channel add up.
    auto& util_family = sink->metrics.gauge_family(
        "sim.channel.utilization", {"channel"},
        server.plan().streams().size() + 1);
    std::map<int, double> duty;
    for (const auto& stream : server.plan().streams()) {
      duty[stream.logical_channel] += stream.transmission.v / stream.period.v;
    }
    for (const auto& [channel, utilization] : duty) {
      util_family.with_ids({static_cast<std::uint64_t>(channel)})
          .max_of(std::min(utilization, 1.0));
    }
    if (faults) {
      fault::trace_plan(*sink, config.injector->plan());
    }
  }

  // The simulated population requests only the M broadcast videos; within
  // them the paper's Zipf skew still applies (rank 1 is hottest).
  workload::RequestFeed arrivals(
      workload::RequestGenerator(
          workload::zipf_probabilities(
              static_cast<std::size_t>(input.num_videos)),
          config.arrivals_per_minute, util::Rng(config.seed)),
      config.horizon);

  std::optional<series::SegmentLayout> layout;
  if (sb != nullptr && config.plan_clients) {
    layout.emplace(sb->layout(input, *design));
  }
  const double d1 = layout.has_value() ? layout->unit_duration().v : 0.0;
  // One wait per arrival, and one buffer peak per planned arrival.
  report.latency_minutes.reserve(arrivals.count_bound());
  if (layout.has_value()) {
    report.buffer_peak_mbits.reserve(arrivals.count_bound());
  }
  // Phase-keyed plan cache, private to this run, so the replication
  // bit-identity contract is untouched. Only tracing (a sink) and fault
  // assessment walk an arrival's downloads; without either, the run reads
  // each phase's verdicts from the cache's summary table and retains no
  // plan. Otherwise it keeps one canonical plan per phase and serves every
  // other arrival as a shifted view.
  std::optional<client::PlanCache> cache;
  if (layout.has_value() && config.plan_cache) {
    cache.emplace(*layout);
  }
  const bool summaries_only =
      cache.has_value() && sink == nullptr && !faults;

  // Time-series probes read simulation locals; the ProbeScope unregisters
  // them before those locals die. last_buffer_peak_units tracks the most
  // recent planned client's peak occupancy — a utilization-style series the
  // aggregate histogram cannot show.
  double last_buffer_peak_units = 0.0;
  obs::ProbeScope probes(config.sampler);
  probes.add("sim.clients_served", [&report] {
    return static_cast<double>(report.clients_served);
  });
  probes.add("sim.jitter_events", [&report] {
    return static_cast<double>(report.jitter_events);
  });
  if (layout.has_value()) {
    probes.add("client.last_buffer_peak_units",
               [&last_buffer_peak_units] { return last_buffer_peak_units; });
  }

  // Instrument handles resolved once, outside the per-client loop.
  obs::Histogram* wait_hist = nullptr;
  obs::Histogram* plan_ns = nullptr;
  obs::Histogram* plan_cache_hit_ns = nullptr;
  obs::QuantileSketch* wait_sketch = nullptr;
  // Per-title wait sketches, indexed by video id. The family is sized to
  // the catalog so no title folds into overflow; handles resolve here,
  // once, and the arrival hot path only touches the sketch.
  std::vector<obs::QuantileSketch*> title_wait;
  if (sink != nullptr) {
    wait_hist = &sink->metrics.histogram("sim.tune_wait_min",
                                         obs::default_latency_bounds_min());
    wait_sketch = &sink->metrics.sketch("sim.tune_wait_sketch_min");
    auto& wait_family = sink->metrics.sketch_family(
        "sb.client.wait", {"title"}, {},
        static_cast<std::size_t>(input.num_videos) + 1);
    // Video ids are 0-based Zipf ranks (0 = hottest).
    title_wait.resize(static_cast<std::size_t>(input.num_videos), nullptr);
    for (std::size_t v = 0; v < title_wait.size(); ++v) {
      title_wait[v] = &wait_family.with_ids({v});
    }
    if (layout.has_value()) {
      plan_ns = &sink->metrics.histogram("client.plan_reception_ns",
                                         obs::default_time_bounds_ns());
      if (cache.has_value()) {
        // The A/B partner of plan_reception_ns: lookups that served a
        // cached canonical plan land here instead.
        plan_cache_hit_ns = &sink->metrics.histogram(
            "client.plan_cache_hit_ns", obs::default_time_bounds_ns());
      }
    }
  }

  // Arrivals come a window at a time: a step loop, then a fold loop. The
  // step computes each arrival's outcome into the window's slots, in
  // arrival order, from the request and state the run does not change (the
  // server's index, the layout; the plan cache still plans a phase on its
  // first visit). The fold applies the slots one arrival at a time, in
  // order: it alone walks downloads (the walk is run-owned) and writes the
  // report, the probes' state and the sink, but for the plan-lookup
  // timers, which time the lookup itself. So every add, record, ordinal
  // and fault draw key comes in the order of a run without windows.
  client::ReceptionPlan uncached_plan;  // the plan without a cache
  WalkedPlan walked;
  if (faults) {
    walked.damaged.reserve(static_cast<std::size_t>(layout->segment_count()));
  }

  // The part of the fold that only a sink or a fault plan needs. It stays
  // out of line so that the summaries-only loops are small enough to
  // inline.
  const auto walk = [&](std::uint64_t t0, std::uint64_t ordinal)
      __attribute__((noinline)) {
    auto& plan = walked.plan;
    if (cache.has_value()) {
      // A cheap contains() probe picks the timer before the clock
      // starts, so hit and miss latencies land in separate histograms.
      const obs::ScopedTimer plan_timer(cache->contains(t0) ? plan_cache_hit_ns
                                                            : plan_ns);
      plan = cache->at(t0);
    } else {
      const obs::ScopedTimer plan_timer(plan_ns);
      uncached_plan = client::plan_reception(*layout, t0);
      plan = client::PlanView(uncached_plan, 0, false);
    }
    walked.damaged.clear();
    // Assess each planned download against the fault plan and play the
    // recovery policy forward. Views hand out downloads already shifted
    // into absolute time, so damage is assessed against the arrival's real
    // windows — cached plans can never alias another episode's damage.
    for (std::size_t di = 0; faults && di < plan.download_count(); ++di) {
      const auto d = plan.download(di);
      const double w_begin = static_cast<double>(d.start) * d1;
      const double w_end = static_cast<double>(d.end()) * d1;
      const auto damage = fault::assess_download(
          config.injector, w_begin, w_end, d.segment,
          static_cast<double>(d.length) * d1,
          ordinal * 4096 + static_cast<std::uint64_t>(d.segment));
      if (!damage.damaged) {
        continue;
      }
      // Download and playback both run at the display rate, so a catch-up
      // that slides the download later stalls every byte by the same
      // amount: the penalty is the effective start's overshoot past the
      // segment's playback deadline.
      double penalty = 0.0;
      if (damage.repaired) {
        const double effective_start =
            damage.repaired_at_min - (w_end - w_begin);
        penalty = std::max(
            0.0, effective_start - static_cast<double>(d.deadline) * d1);
      }
      walked.damaged.push_back({d, damage, penalty});
    }
  };

  const auto step = [&](const workload::Request& request,
                        ArrivalOutcome& out) __attribute__((always_inline)) {
    const auto start =
        server.next_segment_start(request.video, 1, request.arrival);
    VB_ASSERT(start.has_value());
    out = ArrivalOutcome{request, start->v, 0, {}};
    if (layout.has_value()) {
      // Playback starts at the joined broadcast, i.e. slot
      // round(start / D1); the quotient is integral up to rounding noise.
      out.t0 = static_cast<std::uint64_t>(std::llround(start->v / d1));
      if (summaries_only) {
        out.summary = cache->summary(out.t0);
      }
    }
  };

  // Every sink record of one arrival, in this order: its wait metrics, its
  // arrival and tune-in events, its session span, a jitter event, its
  // downloads, then per damaged download its hit and its repair or
  // degradation. It stays out of line, off the plain path.
  const auto record = [&](const ArrivalOutcome& out, std::uint64_t client)
      __attribute__((noinline)) {
    const auto video = out.request.video;
    const double wait = out.start_min - out.request.arrival.v;
    wait_hist->observe(wait);
    wait_sketch->observe(wait);
    title_wait[static_cast<std::size_t>(video)]->observe(wait);
    const auto event = [&](double at, obs::EventKind kind, int channel,
                           double value) {
      sink->trace.record(obs::TraceEvent{.sim_time_min = at,
                                         .kind = kind,
                                         .channel = channel,
                                         .video = video,
                                         .client = client,
                                         .value = value});
    };
    event(out.request.arrival.v, obs::EventKind::kClientArrival, 0, 0.0);
    event(out.start_min, obs::EventKind::kTuneIn, 0, wait);
    // The tune child's duration *is* the reported wait — the invariant
    // trace_analyze --check leans on. Download and fault children follow
    // per planned client, on their segment's track (channel = segment
    // index, so the chrome export draws a flow arrow from the session).
    const auto session_span = obs::record_session(
        sink->spans, {.video = video,
                      .client = client,
                      .arrival_min = out.request.arrival.v,
                      .served_min = out.start_min,
                      .duration_min = input.video.duration.v});
    const auto child = [&](obs::SpanPhase phase, int segment, double from,
                           double to, double value) {
      sink->spans.record(obs::Span{.parent = session_span,
                                   .start_min = from,
                                   .end_min = to,
                                   .phase = phase,
                                   .channel = segment,
                                   .video = video,
                                   .client = client,
                                   .value = value,
                                   .label = {}});
    };
    if (!layout.has_value()) {
      return;
    }
    if (!out.summary.jitter_free) {
      event(out.start_min, obs::EventKind::kJitter, 0, 0.0);
    }
    // The exact reception plan: tuner joins and releases.
    const auto& plan = walked.plan;
    for (std::size_t i = 0; i < plan.download_count(); ++i) {
      const auto d = plan.download(i);
      const double start_min = static_cast<double>(d.start) * d1;
      const double length_min = static_cast<double>(d.length) * d1;
      event(start_min, obs::EventKind::kSegmentDownloadStart, d.segment,
            length_min);
      event(start_min + length_min, obs::EventKind::kSegmentDownloadEnd,
            d.segment, 0.0);
      child(obs::SpanPhase::kSegmentDownload, d.segment, start_min,
            start_min + length_min, length_min);
    }
    // Damage never becomes silent jitter: every fault_hit instant resolves
    // to exactly one repair, from the damaged window's end to the heal, or
    // one fault_degraded instant.
    for (const auto& [d, damage, penalty] : walked.damaged) {
      const double w_end = static_cast<double>(d.end()) * d1;
      const auto episode = static_cast<double>(damage.episode);
      sink->metrics.counter_family("fault.hits", {"kind"})
          .with_ids({static_cast<std::uint64_t>(
              config.injector->plan().episodes()[damage.episode].kind)})
          .add();
      child(obs::SpanPhase::kFaultHit, d.segment, w_end, w_end, episode);
      if (damage.repaired) {
        sink->metrics.counter("fault.repairs").add();
        sink->metrics.sketch("fault.repair_penalty_min").observe(penalty);
        child(obs::SpanPhase::kRepair, d.segment, w_end,
              damage.repaired_at_min, penalty);
      } else {
        sink->metrics.counter("fault.degraded").add();
        const double given_up =
            w_end + static_cast<double>(damage.retries) *
                        (static_cast<double>(d.length) * d1);
        child(obs::SpanPhase::kFaultDegraded, d.segment, given_up, given_up,
              episode);
      }
    }
  };

  // The two report adds stay interleaved per arrival: each add's Welford
  // division then overlaps the other's instead of queueing behind it.
  const auto fold = [&](ArrivalOutcome& out) __attribute__((always_inline)) {
    probes.advance(out.request.arrival.v);
    if (layout.has_value() && !summaries_only) {
      walk(out.t0, report.clients_served + 1);
      out.summary = walked.plan.summary();
    }
    report.latency_minutes.add(out.start_min - out.request.arrival.v);
    ++report.clients_served;
    if (layout.has_value()) {
      if (!out.summary.jitter_free) {
        ++report.jitter_events;
        obs::logf(obs::LogLevel::kWarn,
                  "simulate: jitter for client %llu of video %llu (t0=%llu)",
                  static_cast<unsigned long long>(report.clients_served),
                  static_cast<unsigned long long>(out.request.video),
                  static_cast<unsigned long long>(out.t0));
      }
      report.max_concurrent_downloads =
          std::max(report.max_concurrent_downloads,
                   out.summary.max_concurrent_downloads);
      last_buffer_peak_units =
          static_cast<double>(out.summary.max_buffer_units);
      report.buffer_peak_mbits.add(out.summary.max_buffer(*layout).v);
      for (std::size_t i = 0; faults && i < walked.damaged.size(); ++i) {
        const auto& [d, damage, penalty] = walked.damaged[i];
        ++report.fault_hits;
        if (damage.repaired) {
          ++report.fault_repairs;
          report.fault_penalty_minutes.add(penalty);
        } else {
          ++report.fault_degraded;
        }
      }
    }
    if (sink != nullptr) {
      record(out, report.clients_served);
    }
  };

  // Every client arrival is pulled from the generator by the discrete-event
  // engine (no server-side events exist here, so the heap stays empty):
  // the run is metered by the same engine as the batching server and the
  // control plane, in O(1) memory per arrival.
  std::array<ArrivalOutcome, EventQueue::kArrivalWindow> slots;
  EventQueue events;
  events.attach_sink(sink);
  events.run_windows_until(
      config.horizon.v, arrivals,
      [&](std::span<const workload::Request> window) {
        for (std::size_t i = 0; i < window.size(); ++i) {
          step(window[i], slots[i]);
        }
        for (std::size_t i = 0; i < window.size(); ++i) {
          fold(slots[i]);
        }
      });

  probes.advance(config.horizon.v);
  if (sink != nullptr) {
    // Mirrors of report fields, added once like the plan cache's totals.
    sink->metrics.counter("sim.clients_served").add(report.clients_served);
    sink->metrics.counter("sim.jitter_events").add(report.jitter_events);
    sink->metrics.gauge("sim.max_concurrent_downloads")
        .max_of(static_cast<double>(report.max_concurrent_downloads));
    if (cache.has_value()) {
      const auto& cs = cache->stats();
      // Counters so replication sinks sum: hits + misses == clients_served
      // is the invariant scripts/verify_all.sh asserts via metrics_check.
      sink->metrics.counter("sim.plan_cache.hits").add(cs.hits);
      sink->metrics.counter("sim.plan_cache.misses").add(cs.misses);
      sink->metrics.gauge("sim.plan_cache.entries")
          .max_of(static_cast<double>(cs.entries));
      sink->metrics.gauge("sim.plan_cache.bytes")
          .max_of(static_cast<double>(cs.bytes));
    }
    sink->metrics.counter("sim.stats.samples_folded")
        .add(report.latency_minutes.samples_folded() +
             report.buffer_peak_mbits.samples_folded() +
             report.fault_penalty_minutes.samples_folded());
    obs::logf(obs::LogLevel::kDebug,
              "simulate: done, %llu clients, %llu jitter events",
              static_cast<unsigned long long>(report.clients_served),
              static_cast<unsigned long long>(report.jitter_events));
  }
  return report;
}

Replicated<SimulationReport> simulate_replicated(
    const schemes::BroadcastScheme& scheme, const schemes::DesignInput& input,
    const SimulationConfig& config, std::size_t reps, util::TaskPool* pool) {
  return replicate<SimulationReport>(
      config.seed, reps, pool, config.sink, PoolUse::kAcrossReplications,
      [&](std::uint64_t seed, obs::Sink* sink, util::TaskPool*) {
        SimulationConfig rep_config = config;
        rep_config.seed = seed;
        rep_config.sampler = nullptr;
        rep_config.sink = sink;
        return simulate(scheme, input, rep_config);
      },
      [](SimulationReport& into, const SimulationReport& rep,
         std::size_t r) {
        if (r == 0) {
          into.scheme = rep.scheme;
          into.peak_server_rate = rep.peak_server_rate;
        }
        into.latency_minutes.merge(rep.latency_minutes);
        into.buffer_peak_mbits.merge(rep.buffer_peak_mbits);
        into.max_concurrent_downloads =
            std::max(into.max_concurrent_downloads,
                     rep.max_concurrent_downloads);
        into.clients_served += rep.clients_served;
        into.jitter_events += rep.jitter_events;
        into.fault_hits += rep.fault_hits;
        into.fault_repairs += rep.fault_repairs;
        into.fault_degraded += rep.fault_degraded;
        into.fault_penalty_minutes.merge(rep.fault_penalty_minutes);
      },
      &SimulationReport::latency_minutes);
}

}  // namespace vodbcast::sim
