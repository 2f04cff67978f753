#include "ctrl/adaptive.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

#include "obs/log.hpp"
#include "schemes/skyscraper.hpp"
#include "sim/event_queue.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"
#include "workload/request.hpp"

namespace vodbcast::ctrl {

namespace {

/// The hot set counts as re-converged after the flip once it carries at
/// least this fraction of the demand mass of the ideal (oracle) hot set.
constexpr double kConvergenceFraction = 0.9;

enum class TitleMode : std::uint8_t { kTail, kHot, kDraining };

struct HotState {
  double plan_start = 0.0;
  double slot = 0.0;          ///< Segment-1 period D1, minutes
  int channels = 0;
  double active_until = 0.0;  ///< latest reception finish on this plan
};

/// Rank -> title permutation for the popularity flip, drawn from the run
/// seed (Fisher-Yates over util::Rng) so the scenario replays bit-identically.
std::vector<core::VideoId> flip_permutation(std::size_t n,
                                            std::uint64_t seed) {
  std::vector<core::VideoId> perm(n);
  for (std::size_t i = 0; i < n; ++i) {
    perm[i] = static_cast<core::VideoId>(i);
  }
  util::Rng rng(seed);
  for (std::size_t i = n - 1; i > 0; --i) {
    const auto j = static_cast<std::size_t>(rng.next_below(i + 1));
    std::swap(perm[i], perm[j]);
  }
  return perm;
}

/// The whole per-run state; event callbacks capture one pointer (plus at
/// most a title or an episode index), so each fits std::function's local
/// buffer.
struct AdaptiveSim {
  const batching::BatchingPolicy& policy;
  const AdaptiveConfig& config;
  AdaptiveReport& report;
  sim::EventQueue& events;
  obs::ProbeScope& probes;
  PopularityEstimator& estimator;
  const ChannelAllocator& allocator;
  obs::Sink* sink;

  std::vector<TitleMode> mode;
  std::vector<HotState> hot;
  batching::WaitQueues queues;
  /// Current true per-title access probability (flips mid-run).
  std::vector<double> true_popularity;
  std::vector<core::VideoId> post_flip_title_of_rank;

  double slot_d1 = 0.0;        ///< D1 at the (possibly degraded) K
  int channels_per_video = 0;  ///< K after steady-state degradation
  std::size_t capacity_hot = 0;
  double hot_bandwidth = 0.0;       ///< Mb/s held by active hot titles
  double reserved_bandwidth = 0.0;  ///< Mb/s held by draining titles
  int tail_capacity = 0;
  int tail_busy = 0;

  bool flipped = false;
  std::int64_t epochs_since_flip = -1;  ///< -1 until the flip lands
  std::uint64_t next_client = 0;
  /// Span id of the current control epoch; drain spans and the sessions a
  /// reallocation absorbs parent onto it (0 before the first allocation).
  std::uint64_t epoch_span = 0;

  // Instrument handles, resolved once; null without a sink.
  obs::Counter* realloc_counter = nullptr;
  obs::Counter* promote_counter = nullptr;
  obs::Counter* demote_counter = nullptr;
  obs::Counter* drain_counter = nullptr;
  obs::Gauge* hot_gauge = nullptr;
  obs::Gauge* tail_gauge = nullptr;
  obs::Gauge* degraded_gauge = nullptr;
  obs::Gauge* channels_gauge = nullptr;
  // Per-title mode-transition counters (empty without a sink), indexed by
  // video id — which titles churn is the control plane's key diagnostic.
  std::vector<obs::Counter*> promote_by_title{};
  std::vector<obs::Counter*> demote_by_title{};
  std::vector<obs::Counter*> drain_by_title{};

  [[nodiscard]] double channel_rate() const {
    return config.video.display_rate.v;
  }

  void refresh_tail_capacity() {
    tail_capacity = static_cast<int>(
        (config.total_bandwidth.v - hot_bandwidth - reserved_bandwidth) /
            channel_rate() +
        1e-9);
    if (tail_gauge != nullptr) {
      tail_gauge->set(static_cast<double>(tail_capacity));
    }
  }

  /// Records an instant span (start == end == now) under the current epoch:
  /// promotions, restarts and outage-forced demotions.
  void instant(obs::SpanPhase phase, double now, std::uint64_t video,
               double value, std::int32_t channel) {
    if (sink != nullptr) {
      sink->spans.record(obs::Span{
          .parent = epoch_span,
          .start_min = now,
          .end_min = now,
          .phase = phase,
          .channel = channel,
          .video = video,
          .client = 0,
          .value = value,
          .label = {},
      });
    }
  }

  /// Serves one hot request: tune to the next Segment-1 slot of the title's
  /// current plan (clients only ever join broadcast beginnings).
  void serve_broadcast(core::VideoId video, double now) {
    HotState& state = hot[video];
    const double elapsed = now - state.plan_start;
    double slots = std::ceil(elapsed / state.slot);
    double tune_at = state.plan_start + slots * state.slot;
    if (tune_at < now) {  // float guard: never tune into the past
      tune_at += state.slot;
    }
    const double wait = tune_at - now;
    report.wait_minutes.add(wait);
    report.hot_wait_minutes.add(wait);
    ++report.served_hot;
    const double finish = tune_at + config.video.duration.v;
    state.active_until = std::max(state.active_until, finish);
    const std::uint64_t client = ++next_client;
    if (sink != nullptr) {
      obs::record_session(sink->spans,
                          {.video = video,
                           .client = client,
                           .arrival_min = now,
                           .served_min = tune_at,
                           .duration_min = config.video.duration.v,
                           .playback_channel = state.channels});
    }
  }

  /// Serves tail batches while channels and pending queues allow.
  void try_dispatch() {
    while (tail_busy < tail_capacity) {
      const auto video = policy.pick(queues);
      if (!video.has_value()) {
        return;
      }
      const double now = events.now();
      auto& queue = queues[*video];
      VB_ASSERT(!queue.empty());
      for (const auto& r : queue) {
        const double wait = now - r.arrival.v;
        report.wait_minutes.add(wait);
        report.tail_wait_minutes.add(wait);
        if (sink != nullptr) {
          obs::record_session(sink->spans,
                              {.video = *video,
                               .client = ++next_client,
                               .arrival_min = r.arrival.v,
                               .served_min = now,
                               .wait_phase = obs::SpanPhase::kQueueWait,
                               .duration_min = config.video.duration.v,
                               .playback_channel = tail_busy + 1});
        }
      }
      const auto batch = queue.size();
      report.served_tail += batch;
      queue.clear();
      ++tail_busy;
      events.schedule(now + config.video.duration.v, [this] {
        --tail_busy;
        try_dispatch();
      });
    }
  }

  void arrival(const workload::Request& request) {
    const double now = request.arrival.v;
    probes.advance(now);
    estimator.observe(request.video, request.arrival);
    if (mode[request.video] == TitleMode::kHot) {
      serve_broadcast(request.video, now);
      return;
    }
    queues[request.video].push_back(batching::PendingRequest{
        .arrival = request.arrival,
        .renege_at = core::Minutes{1e300},
    });
    try_dispatch();
  }

  /// Promotes `video` onto a fresh plan starting now and absorbs its
  /// pending tail queue (those subscribers tune to the first slot).
  void promote(std::size_t video, double now) {
    mode[video] = TitleMode::kHot;
    hot[video] = HotState{
        .plan_start = now,
        .slot = slot_d1,
        .channels = channels_per_video,
        .active_until = now,
    };
    hot_bandwidth += channel_rate() * channels_per_video;
    ++report.promotions;
    if (!promote_by_title.empty()) {
      promote_by_title[video]->add();
    }
    instant(obs::SpanPhase::kPromote, now, video,
            static_cast<double>(channels_per_video), 0);
    auto& queue = queues[video];
    if (!queue.empty()) {
      for (const auto& r : queue) {
        const double wait = now - r.arrival.v;
        report.wait_minutes.add(wait);
        report.hot_wait_minutes.add(wait);
        ++report.served_hot;
        const std::uint64_t client = ++next_client;
        if (sink != nullptr) {
          // The promotion itself ended these waits: parent the absorbed
          // sessions onto the epoch span that triggered it.
          obs::record_session(sink->spans,
                              {.parent = epoch_span,
                               .video = video,
                               .client = client,
                               .arrival_min = r.arrival.v,
                               .served_min = now,
                               .wait_phase = obs::SpanPhase::kQueueWait,
                               .duration_min = config.video.duration.v,
                               .playback_channel = channels_per_video});
        }
      }
      hot[video].active_until = now + config.video.duration.v;
      queue.clear();
    }
  }

  /// Demotes `video`: new arrivals route to the tail immediately, but the
  /// channels stay allocated until every tuned-in client finishes on the
  /// old plan; only then does finish_drain hand the bandwidth over (the
  /// drain span's end).
  void demote(std::size_t video, double now) {
    mode[video] = TitleMode::kDraining;
    const double held = channel_rate() * hot[video].channels;
    hot_bandwidth -= held;
    reserved_bandwidth += held;
    const double drain_at = std::max(hot[video].active_until, now);
    ++report.demotions;
    if (!demote_by_title.empty()) {
      demote_by_title[video]->add();
    }
    if (sink != nullptr) {
      sink->spans.record(obs::Span{
          .parent = epoch_span,
          .start_min = now,
          .end_min = drain_at,
          .phase = obs::SpanPhase::kDrain,
          .channel = hot[video].channels,
          .video = video,
          .client = 0,
          .value = drain_at - now,
          .label = {},
      });
    }
    events.schedule(drain_at, [this, video] { finish_drain(video); });
  }

  void finish_drain(std::size_t video) {
    VB_ASSERT(mode[video] == TitleMode::kDraining);
    mode[video] = TitleMode::kTail;
    reserved_bandwidth -= channel_rate() * hot[video].channels;
    hot[video] = HotState{};
    ++report.drains_completed;
    if (drain_counter != nullptr) {
      drain_counter->add();
    }
    if (!drain_by_title.empty()) {
      drain_by_title[video]->add();
    }
    refresh_tail_capacity();
    try_dispatch();
  }

  /// Minutes of [a, b) the fault plan keeps title `v`'s broadcast bank
  /// dark (episode channels key hot titles as title id + 1).
  [[nodiscard]] double outage_overlap(double a, double b,
                                      std::size_t v) const {
    double total = 0.0;
    for (const auto& e : config.injector->plan().episodes()) {
      if (e.kind == fault::EpisodeKind::kChannelOutage &&
          e.hits_channel(static_cast<int>(v) + 1)) {
        total += e.overlap_min(a, b);
      }
    }
    return total;
  }

  /// A server-restart episode: every hot plan starts fresh at the restart
  /// instant, so the Segment-1 slot clock resets and subsequent arrivals
  /// tune against the new plan. (Per-client replay of the cut sessions is
  /// the packet layer's job; the control plane models the schedule reset.)
  void server_restart(std::size_t episode) {
    const double now = events.now();
    ++report.fault_restarts;
    for (std::size_t v = 0; v < mode.size(); ++v) {
      if (mode[v] == TitleMode::kHot) {
        hot[v].plan_start = now;
      }
    }
    if (sink != nullptr) {
      sink->metrics.counter("fault.restarts").add();
    }
    instant(obs::SpanPhase::kFaultHit, now, 0, static_cast<double>(episode),
            -1);
  }

  /// Graceful degradation: a sustained channel outage on a hot title makes
  /// its broadcast bank undeliverable, so the controller demotes it through
  /// the normal drain machinery — demand re-routes to the tail until the
  /// channel heals and the allocator re-promotes the title on merit.
  void force_outage_demotions(double now) {
    if (config.injector == nullptr || config.injector->plan().empty() ||
        config.epoch.v <= 0.0) {
      return;
    }
    const double window_begin = std::max(0.0, now - config.epoch.v);
    for (const auto v : titles_in_mode(TitleMode::kHot)) {
      const double dark = outage_overlap(window_begin, now, v);
      if (dark < 0.5 * config.epoch.v) {
        continue;
      }
      demote(v, now);
      ++report.fault_forced_demotions;
      if (sink != nullptr) {
        sink->metrics.counter("fault.forced_demotions").add();
      }
      instant(obs::SpanPhase::kFaultDegraded, now, v, dark,
              static_cast<int>(v) + 1);
    }
  }

  [[nodiscard]] std::vector<std::size_t> titles_in_mode(TitleMode m) const {
    std::vector<std::size_t> out;
    for (std::size_t v = 0; v < mode.size(); ++v) {
      if (mode[v] == m) {
        out.push_back(v);
      }
    }
    return out;
  }

  /// One control epoch: re-solve the split and apply the transition diff.
  void run_epoch() {
    const double now = events.now();
    probes.advance(now);
    ++report.epochs;
    if (flipped) {
      ++epochs_since_flip;
    }
    const auto weights = estimator.weights_at(core::Minutes{now});
    const auto current = titles_in_mode(TitleMode::kHot);
    const auto draining = titles_in_mode(TitleMode::kDraining);
    const auto alloc =
        allocator.reallocate(weights, current, draining, reserved_bandwidth);
    if (sink != nullptr) {
      // The epoch span covers this control interval; the drains it starts
      // and the sessions its promotions absorb parent onto it.
      epoch_span = sink->spans.record(obs::Span{
          .start_min = now,
          .end_min = std::min(now + config.epoch.v, config.horizon.v),
          .phase = obs::SpanPhase::kEpoch,
          .channel = alloc.channels_per_video,
          .video = 0,
          .client = 0,
          .value = static_cast<double>(alloc.hot.size()),
          .label = {},
      });
    }
    for (const auto v : alloc.demoted) {
      demote(v, now);
    }
    for (const auto v : alloc.promoted) {
      promote(v, now);
    }
    report.deferred_promotions += alloc.deferred_promotions;
    const bool changed = !alloc.promoted.empty() || !alloc.demoted.empty();
    if (changed) {
      ++report.reallocs;
      if (realloc_counter != nullptr) {
        realloc_counter->add();
      }
      if (promote_counter != nullptr) {
        promote_counter->add(alloc.promoted.size());
        demote_counter->add(alloc.demoted.size());
      }
    }
    const bool degraded_now =
        alloc.degraded || alloc.deferred_promotions > 0;
    if (degraded_now) {
      ++report.degraded_epochs;
    }
    if (sink != nullptr) {
      hot_gauge->set(static_cast<double>(alloc.hot.size()));
      degraded_gauge->set(degraded_now ? 1.0 : 0.0);
      channels_gauge->set(static_cast<double>(alloc.channels_per_video));
    }
    force_outage_demotions(now);
    refresh_tail_capacity();
    check_convergence(alloc.hot);
    try_dispatch();
    const double next = now + config.epoch.v;
    if (next < config.horizon.v) {
      events.schedule(next, [this] { run_epoch(); });
    }
  }

  /// After the flip, the hot set has re-converged once it carries
  /// kConvergenceFraction of the demand mass of the oracle top-H set.
  void check_convergence(const std::vector<std::size_t>& hot_set) {
    if (!flipped || report.converged_epochs_after_flip >= 0 ||
        epochs_since_flip < 0) {
      return;
    }
    std::vector<double> sorted = true_popularity;
    std::nth_element(
        sorted.begin(),
        sorted.begin() + static_cast<std::ptrdiff_t>(
                             std::min(capacity_hot, sorted.size()) - 1),
        sorted.end(), std::greater<>());
    double ideal_mass = 0.0;
    for (std::size_t i = 0; i < std::min(capacity_hot, sorted.size()); ++i) {
      ideal_mass += sorted[i];
    }
    double hot_mass = 0.0;
    for (const auto v : hot_set) {
      hot_mass += true_popularity[v];
    }
    if (ideal_mass <= 0.0 ||
        hot_mass >= kConvergenceFraction * ideal_mass) {
      report.converged_epochs_after_flip = epochs_since_flip;
    }
  }
};

}  // namespace

AdaptiveReport simulate_adaptive(const batching::BatchingPolicy& policy,
                                 const AdaptiveConfig& config) {
  VB_EXPECTS(config.catalog_size >= 1);
  VB_EXPECTS(config.hot_titles >= 1);
  VB_EXPECTS(config.hot_titles <= config.catalog_size);
  VB_EXPECTS(config.broadcast_channels_per_video >= 1);
  VB_EXPECTS(config.horizon.v > 0.0);
  VB_EXPECTS(config.arrivals_per_minute > 0.0);

  const ChannelAllocator allocator(AllocatorConfig{
      .total_bandwidth = config.total_bandwidth,
      .channel_rate = config.video.display_rate.v,
      .target_hot_titles = config.hot_titles,
      .channels_per_video = config.broadcast_channels_per_video,
      .min_tail_channels = config.min_tail_channels,
      .promote_ratio = config.promote_ratio,
      .demote_ratio = config.demote_ratio,
  });
  const auto capacity = allocator.steady_capacity();
  VB_EXPECTS_MSG(capacity.hot_titles >= 1,
                 "budget cannot broadcast even one hot title");

  // D1 at the (possibly degraded) K: the guaranteed worst-case hot wait.
  const schemes::SkyscraperScheme sb(config.sb_width);
  const schemes::DesignInput sb_input{
      .server_bandwidth =
          core::MbitPerSec{config.video.display_rate.v *
                           capacity.channels_per_video},
      .num_videos = 1,
      .video = config.video,
  };
  const auto evaluation = sb.evaluate(sb_input);
  VB_EXPECTS(evaluation.has_value());
  const double slot_d1 = evaluation->metrics.access_latency.v;

  // Request stream: Zipf over *ranks*, pulled one arrival at a time; the
  // rank->title map is the identity until flip_at, then a seeded shuffle
  // applied as each arrival is pulled.
  const auto rank_probs =
      workload::zipf_probabilities(config.catalog_size, config.zipf_theta);
  workload::RequestFeed arrivals(
      workload::RequestGenerator(rank_probs, config.arrivals_per_minute,
                                 util::Rng(config.seed)),
      config.horizon);
  const bool flips = config.flip_at.v >= 0.0 &&
                     config.flip_at.v < config.horizon.v;
  std::vector<core::VideoId> perm;
  if (flips) {
    perm = flip_permutation(config.catalog_size, config.seed ^ 0x9e3779b9u);
  }

  // Each wait distribution takes at most one sample per arrival.
  AdaptiveReport report;
  for (auto* waits : {&report.wait_minutes, &report.hot_wait_minutes,
                      &report.tail_wait_minutes}) {
    waits->set_sample_cap(config.stats_sample_cap);
    waits->reserve(arrivals.count_bound());
  }
  report.channels_per_video = capacity.channels_per_video;
  report.broadcast_worst_latency = core::Minutes{slot_d1};
  report.degraded = capacity.degraded;

  PopularityEstimator estimator(config.catalog_size, config.half_life);
  estimator.seed_prior(rank_probs, config.arrivals_per_minute);

  sim::EventQueue events;
  events.attach_sink(config.sink);
  obs::ProbeScope probes(config.sampler);

  AdaptiveSim state{
      .policy = policy,
      .config = config,
      .report = report,
      .events = events,
      .probes = probes,
      .estimator = estimator,
      .allocator = allocator,
      .sink = config.sink,
      .mode = std::vector<TitleMode>(config.catalog_size, TitleMode::kTail),
      .hot = std::vector<HotState>(config.catalog_size),
      .queues = batching::WaitQueues(config.catalog_size),
      .true_popularity = rank_probs,
      .post_flip_title_of_rank = perm,
      .slot_d1 = slot_d1,
      .channels_per_video = capacity.channels_per_video,
      .capacity_hot = capacity.hot_titles,
  };
  if (config.sink != nullptr) {
    auto& metrics = config.sink->metrics;
    state.realloc_counter = &metrics.counter("ctrl.realloc");
    state.promote_counter = &metrics.counter("ctrl.promotions");
    state.demote_counter = &metrics.counter("ctrl.demotions");
    state.drain_counter = &metrics.counter("ctrl.drains_completed");
    state.hot_gauge = &metrics.gauge("ctrl.hot_titles");
    state.tail_gauge = &metrics.gauge("ctrl.tail_channels");
    state.degraded_gauge = &metrics.gauge("ctrl.degraded");
    state.channels_gauge = &metrics.gauge("ctrl.channels_per_title");
    // Per-title transition counters, resolved once and indexed by video id
    // inside the control loop. Families sized to the catalog: no overflow.
    auto& promote_family = metrics.counter_family(
        "ctrl.title.promotions", {"title"}, config.catalog_size + 1);
    auto& demote_family = metrics.counter_family(
        "ctrl.title.demotions", {"title"}, config.catalog_size + 1);
    auto& drain_family = metrics.counter_family(
        "ctrl.title.drains", {"title"}, config.catalog_size + 1);
    state.promote_by_title.resize(config.catalog_size);
    state.demote_by_title.resize(config.catalog_size);
    state.drain_by_title.resize(config.catalog_size);
    for (std::size_t video = 0; video < config.catalog_size; ++video) {
      state.promote_by_title[video] = &promote_family.with_ids({video});
      state.demote_by_title[video] = &demote_family.with_ids({video});
      state.drain_by_title[video] = &drain_family.with_ids({video});
    }
  }

  probes.add("ctrl.hot_titles", [&state] {
    return static_cast<double>(state.titles_in_mode(TitleMode::kHot).size());
  });
  probes.add("ctrl.tail_channels", [&state] {
    return static_cast<double>(state.tail_capacity);
  });
  probes.add("ctrl.draining_titles", [&state] {
    return static_cast<double>(
        state.titles_in_mode(TitleMode::kDraining).size());
  });
  probes.add("ctrl.queue_depth", [&state] {
    std::size_t total = 0;
    for (const auto& queue : state.queues) {
      total += queue.size();
    }
    return static_cast<double>(total);
  });

  // Initial allocation from the prior ranks (no epoch counted): the top
  // capacity_hot titles go hot on plans starting at t = 0.
  {
    const auto alloc = allocator.reallocate(
        estimator.weights_at(core::Minutes{0.0}), {}, {}, 0.0);
    for (const auto v : alloc.promoted) {
      state.mode[v] = TitleMode::kHot;
      state.hot[v] = HotState{
          .plan_start = 0.0,
          .slot = slot_d1,
          .channels = capacity.channels_per_video,
          .active_until = 0.0,
      };
      state.hot_bandwidth +=
          state.channel_rate() * capacity.channels_per_video;
    }
    state.refresh_tail_capacity();
    if (config.sink != nullptr) {
      state.hot_gauge->set(static_cast<double>(alloc.hot.size()));
      state.degraded_gauge->set(capacity.degraded ? 1.0 : 0.0);
      state.channels_gauge->set(
          static_cast<double>(capacity.channels_per_video));
    }
    if (config.sink != nullptr) {
      // The initial allocation opens the first control interval.
      const double first_end =
          (config.epoch.v > 0.0 && config.epoch.v < config.horizon.v)
              ? config.epoch.v
              : config.horizon.v;
      state.epoch_span = config.sink->spans.record(obs::Span{
          .start_min = 0.0,
          .end_min = first_end,
          .phase = obs::SpanPhase::kEpoch,
          .channel = capacity.channels_per_video,
          .video = 0,
          .client = 0,
          .value = static_cast<double>(alloc.hot.size()),
          .label = {},
      });
    }
    obs::logf(obs::LogLevel::kDebug,
              "ctrl: initial hot set %zu titles x %d channels (D1=%.3f min,"
              " tail %d channels%s)",
              alloc.hot.size(), capacity.channels_per_video, slot_d1,
              state.tail_capacity, capacity.degraded ? ", degraded" : "");
  }

  if (flips) {
    events.schedule(config.flip_at.v, [sim = &state, &rank_probs] {
      sim->flipped = true;
      sim->epochs_since_flip = 0;
      std::vector<double> flipped(sim->true_popularity.size());
      for (std::size_t rank = 0; rank < flipped.size(); ++rank) {
        flipped[sim->post_flip_title_of_rank[rank]] = rank_probs[rank];
      }
      sim->true_popularity = std::move(flipped);
    });
  }
  if (config.injector != nullptr && !config.injector->plan().empty()) {
    if (config.sink != nullptr) {
      fault::trace_plan(*config.sink, config.injector->plan());
    }
    const auto& episodes = config.injector->plan().episodes();
    for (std::size_t i = 0; i < episodes.size(); ++i) {
      if (episodes[i].kind == fault::EpisodeKind::kServerRestart &&
          episodes[i].start_min < config.horizon.v) {
        events.schedule(episodes[i].start_min,
                        [sim = &state, i] { sim->server_restart(i); });
      }
    }
  }
  const bool adaptive = config.epoch.v > 0.0;
  if (adaptive && config.epoch.v < config.horizon.v) {
    events.schedule(config.epoch.v, [sim = &state] { sim->run_epoch(); });
  }

  // Arrivals are pulled from the feed; the heap holds only the server-side
  // events above and those the run schedules (batch completions, drains,
  // later epochs).
  events.run_until(config.horizon.v, arrivals,
                   [&state, &perm, &config](workload::Request request) {
                     if (!perm.empty() &&
                         request.arrival.v >= config.flip_at.v) {
                       request.video = perm[request.video];
                     }
                     VB_EXPECTS(request.video < config.catalog_size);
                     state.arrival(request);
                   });
  probes.advance(config.horizon.v);

  std::size_t unserved = 0;
  for (const auto& queue : state.queues) {
    unserved += queue.size();
  }
  report.unserved = unserved;
  report.final_hot = state.titles_in_mode(TitleMode::kHot);
  if (config.sink != nullptr) {
    auto& metrics = config.sink->metrics;
    metrics.counter("ctrl.served_hot").add(report.served_hot);
    metrics.counter("ctrl.served_tail").add(report.served_tail);
    metrics.counter("ctrl.epochs").add(report.epochs);
    metrics.counter("ctrl.deferred_promotions")
        .add(report.deferred_promotions);
    metrics.counter("ctrl.degraded_epochs").add(report.degraded_epochs);
    metrics.counter("ctrl.unserved_at_horizon").add(report.unserved);
  }
  obs::logf(obs::LogLevel::kDebug,
            "ctrl: served hot=%llu tail=%llu, %llu realloc(s), "
            "%llu promotion(s), %llu demotion(s), %llu drain(s), "
            "mean wait %.3f min",
            static_cast<unsigned long long>(report.served_hot),
            static_cast<unsigned long long>(report.served_tail),
            static_cast<unsigned long long>(report.reallocs),
            static_cast<unsigned long long>(report.promotions),
            static_cast<unsigned long long>(report.demotions),
            static_cast<unsigned long long>(report.drains_completed),
            report.mean_wait_minutes());
  return report;
}

namespace {

/// Folds replication r into `into` (see header contract): replication 0 is
/// copied whole, later ones add in.
void fold_replication(AdaptiveReport& into, const AdaptiveReport& other,
                      std::size_t r) {
  if (r == 0) {
    into = other;
    return;
  }
  into.wait_minutes.merge(other.wait_minutes);
  into.hot_wait_minutes.merge(other.hot_wait_minutes);
  into.tail_wait_minutes.merge(other.tail_wait_minutes);
  into.served_hot += other.served_hot;
  into.served_tail += other.served_tail;
  into.unserved += other.unserved;
  into.epochs += other.epochs;
  into.reallocs += other.reallocs;
  into.promotions += other.promotions;
  into.demotions += other.demotions;
  into.drains_completed += other.drains_completed;
  into.deferred_promotions += other.deferred_promotions;
  into.degraded_epochs += other.degraded_epochs;
  into.fault_forced_demotions += other.fault_forced_demotions;
  into.fault_restarts += other.fault_restarts;
  into.degraded = into.degraded || other.degraded;
  // Convergence merges pessimistically: -1 (never converged) dominates,
  // otherwise the slowest replication defines the bound.
  if (into.converged_epochs_after_flip < 0 ||
      other.converged_epochs_after_flip < 0) {
    into.converged_epochs_after_flip =
        std::min<std::int64_t>(into.converged_epochs_after_flip,
                               other.converged_epochs_after_flip);
  } else {
    into.converged_epochs_after_flip =
        std::max(into.converged_epochs_after_flip,
                 other.converged_epochs_after_flip);
  }
}

}  // namespace

sim::Replicated<AdaptiveReport> simulate_adaptive_replicated(
    const batching::BatchingPolicy& policy, const AdaptiveConfig& config,
    std::size_t reps, util::TaskPool* pool) {
  return sim::replicate<AdaptiveReport>(
      config.seed, reps, pool, config.sink,
      sim::PoolUse::kAcrossReplications,
      [&](std::uint64_t seed, obs::Sink* sink, util::TaskPool*) {
        AdaptiveConfig rep_config = config;
        rep_config.seed = seed;
        rep_config.sampler = nullptr;  // R interleaved clocks are meaningless
        rep_config.sink = sink;
        return simulate_adaptive(policy, rep_config);
      },
      fold_replication, &AdaptiveReport::wait_minutes);
}

}  // namespace vodbcast::ctrl
