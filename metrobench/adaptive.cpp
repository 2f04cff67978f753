// hybrid_adaptive: ctrl::simulate_adaptive with MQL on the tail and a
// popularity flip at half the horizon.
//
// The control plane cannot be replayed from outside, so the traced run has
// two parts. Counts come from a sink attached to the real run (whose report
// must equal the clean one). Busy times come from timing the workload's own
// stream through RequestGenerator, through an EventQueue on its own, and
// through PopularityEstimator::observe and weights_at and
// ChannelAllocator::reallocate at every epoch; whatever the clean run spent
// beyond those layers is ctrl.rest_s, a difference of two timings that can
// read below 0 when the rest is within their noise. The replay feeds the
// allocator the hot set it returned last epoch and no draining titles, so
// its decisions follow the estimator but not the drain protocol.
#include <algorithm>
#include <stdexcept>

#include "batching/queue_policies.hpp"
#include "campaign.hpp"
#include "ctrl/adaptive.hpp"
#include "ctrl/allocator.hpp"
#include "ctrl/popularity.hpp"
#include "obs/sink.hpp"
#include "sim/event_queue.hpp"
#include "util/rng.hpp"
#include "workload/request.hpp"
#include "workload/zipf.hpp"

namespace metrobench {

namespace {

using namespace vodbcast;

// 600 Mb/s, 100 titles, 10 hot titles x 6 SB channels, 200 arrivals/min
// over 6000 min (about 1.2M arrivals), ranks reshuffled at 3000 min.
ctrl::AdaptiveConfig campaign_config(std::uint64_t seed) {
  ctrl::AdaptiveConfig config;
  config.total_bandwidth = core::MbitPerSec{600.0};
  config.catalog_size = 100;
  config.hot_titles = 10;
  config.broadcast_channels_per_video = 6;
  config.arrivals_per_minute = 200.0;
  config.horizon = core::Minutes{6000.0};
  config.flip_at = core::Minutes{3000.0};
  config.seed = seed;
  return config;
}

/// The rank -> title shuffle simulate_adaptive applies at the flip: a
/// Fisher-Yates pass over util::Rng seeded from the run seed.
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

std::string digest(const ctrl::AdaptiveReport& r) {
  Digest d;
  d.add(r.wait_minutes)
      .add(r.hot_wait_minutes)
      .add(r.tail_wait_minutes)
      .add(r.served_hot)
      .add(r.served_tail)
      .add(r.unserved)
      .add(r.epochs)
      .add(r.reallocs)
      .add(r.promotions)
      .add(r.demotions)
      .add(r.drains_completed)
      .add(r.deferred_promotions)
      .add(r.degraded_epochs)
      .add(static_cast<std::uint64_t>(r.converged_epochs_after_flip));
  for (const auto v : r.final_hot) {
    d.add(static_cast<std::uint64_t>(v));
  }
  return d.hex();
}

ctrl::AllocatorConfig allocator_config(const ctrl::AdaptiveConfig& c) {
  return ctrl::AllocatorConfig{
      .total_bandwidth = c.total_bandwidth,
      .channel_rate = c.video.display_rate.v,
      .target_hot_titles = c.hot_titles,
      .channels_per_video = c.broadcast_channels_per_video,
      .min_tail_channels = c.min_tail_channels,
      .promote_ratio = c.promote_ratio,
      .demote_ratio = c.demote_ratio,
  };
}

class AdaptiveCampaign final : public Campaign {
 public:
  explicit AdaptiveCampaign(std::uint64_t seed)
      : config_(campaign_config(seed)),
        allocator_(allocator_config(config_)),
        rank_probs_(workload::zipf_probabilities(config_.catalog_size,
                                                 config_.zipf_theta)) {
    if (allocator_.steady_capacity().hot_titles < 1) {
      throw std::runtime_error("hybrid budget cannot broadcast a hot title");
    }
  }

  [[nodiscard]] unsigned threads() const override { return 1; }

  Outcome run() override {
    Outcome out;
    const std::int64_t t0 = now_ns();
    const auto report = ctrl::simulate_adaptive(policy_, config_);
    out.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
    check(report, out);
    return out;
  }

  Traced run_traced(const Outcome& clean, Ledger& ledger) override {
    Traced traced;
    auto observed_config = config_;
    obs::Sink sink;
    observed_config.sink = &sink;
    const std::int64_t t0 = now_ns();
    const auto report = ctrl::simulate_adaptive(policy_, observed_config);
    Outcome& out = traced.outcome;
    out.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
    check(report, out);
    if (out.digest != clean.digest) {
      out.fail_all("the sink-attached run's report differs from the clean run");
    }

    const std::int64_t r0 = now_ns();
    std::vector<workload::Request> stream;
    {
      const Ledger::Scope scope(ledger, Layer::kWorkload);
      workload::RequestGenerator generator(
          rank_probs_, config_.arrivals_per_minute, util::Rng(config_.seed));
      stream = generator.generate_until(config_.horizon);
    }
    const auto perm =
        flip_permutation(config_.catalog_size, config_.seed ^ 0x9e3779b9u);
    for (auto& request : stream) {
      if (request.arrival.v >= config_.flip_at.v) {
        request.video = perm[request.video];
      }
    }

    // The engine alone: the arrivals through an EventQueue whose callbacks
    // only count, so its spans hold the queue's own work.
    sim::EventQueue events;
    std::uint64_t fired = 0;
    {
      const Ledger::Scope scope(ledger, Layer::kEngine);
      for (const auto& request : stream) {
        events.schedule(request.arrival.v, [&fired] { ++fired; });
      }
    }
    {
      const Ledger::Scope scope(ledger, Layer::kEngine);
      while (events.step()) {
      }
    }
    if (fired != stream.size()) {
      out.fail_all("the event queue lost arrivals");
    }

    // The control plane's own calls, in simulate_adaptive's order: the
    // arrivals up to each epoch boundary, then that epoch's re-solve.
    ctrl::PopularityEstimator estimator(config_.catalog_size,
                                        config_.half_life);
    std::vector<std::size_t> hot;
    const auto reallocate = [&](double now) {
      std::vector<double> weights;
      {
        const Ledger::Scope scope(ledger, Layer::kEstimator);
        weights = estimator.weights_at(core::Minutes{now});
      }
      const Ledger::Scope scope(ledger, Layer::kAllocator);
      hot = allocator_.reallocate(weights, hot, {}, 0.0).hot;
    };
    {
      const Ledger::Scope scope(ledger, Layer::kEstimator);
      estimator.seed_prior(rank_probs_, config_.arrivals_per_minute);
    }
    reallocate(0.0);
    std::size_t next = 0;
    for (double epoch = config_.epoch.v;; epoch += config_.epoch.v) {
      const double until = std::min(epoch, config_.horizon.v);
      {
        const Ledger::Scope scope(ledger, Layer::kEstimator);
        for (; next < stream.size() && stream[next].arrival.v <= until;
             ++next) {
          estimator.observe(stream[next].video, stream[next].arrival);
        }
      }
      if (epoch >= config_.horizon.v) {
        break;
      }
      reallocate(epoch);
    }
    const double replay_wall = static_cast<double>(now_ns() - r0) * 1e-9;

    auto& l = traced.layers;
    const auto counter = [&sink](const char* name) {
      return static_cast<double>(sink.metrics.counter(name).value());
    };
    const auto gauge = [&sink](const char* name) {
      return sink.metrics.gauge(name).value();
    };
    l["workload.requests"] = static_cast<double>(stream.size());
    l["workload.busy_s"] = ledger.busy_s(Layer::kWorkload);
    l["workload.request_bytes"] =
        static_cast<double>(stream.capacity() * sizeof(workload::Request));
    l["sim.engine.scheduled"] = counter("sim.event_queue.scheduled");
    l["sim.engine.fired"] = counter("sim.event_queue.fired");
    l["sim.engine.busy_s"] = ledger.busy_s(Layer::kEngine);
    l["sim.engine.pending_peak"] = gauge("sim.event_queue.pending_peak");
    l["sim.engine.slab_slots"] = gauge("sim.event_queue.slab_slots");
    const sim::Distribution* dists[] = {&report.wait_minutes,
                                        &report.hot_wait_minutes,
                                        &report.tail_wait_minutes};
    double samples = 0.0;
    double retained = 0.0;
    for (const auto* d : dists) {
      samples += static_cast<double>(d->count());
      retained += static_cast<double>(d->retained_bytes());
    }
    l["sim.stats.samples"] = samples;
    l["sim.stats.retained_bytes"] = retained;
    l["ctrl.estimator_observes"] = static_cast<double>(stream.size());
    l["ctrl.estimator_busy_s"] = ledger.busy_s(Layer::kEstimator);
    l["ctrl.epochs"] = static_cast<double>(report.epochs);
    l["ctrl.reallocs"] = static_cast<double>(report.reallocs);
    l["ctrl.allocator_busy_s"] = ledger.busy_s(Layer::kAllocator);
    l["ctrl.drains"] = static_cast<double>(report.drains_completed);
    l["ctrl.tail_served"] = static_cast<double>(report.served_tail);
    l["ctrl.tail_unserved"] = static_cast<double>(report.unserved);
    l["ctrl.rest_s"] = clean.wall_s - ledger.total_busy_s();
    l["trace.overhead_s"] = out.wall_s - clean.wall_s;
    l["trace.unattributed_s"] = replay_wall - ledger.total_busy_s();
    return traced;
  }

 private:
  /// Every arrival generated is served hot, served by the tail or still
  /// queued at the horizon; none is lost.
  void check(const ctrl::AdaptiveReport& report, Outcome& out) const {
    workload::RequestGenerator generator(
        rank_probs_, config_.arrivals_per_minute, util::Rng(config_.seed));
    std::uint64_t arrivals = 0;
    while (generator.next().arrival.v < config_.horizon.v) {
      ++arrivals;
    }
    out.arrivals = arrivals;
    out.digest = digest(report);
    const auto accounted =
        report.served_hot + report.served_tail + report.unserved;
    if (accounted != arrivals) {
      out.fail_all("served_hot + served_tail + unserved != arrivals");
    }
  }

  ctrl::AdaptiveConfig config_;
  batching::MqlPolicy policy_;
  ctrl::ChannelAllocator allocator_;
  std::vector<double> rank_probs_;
};

}  // namespace

std::unique_ptr<Campaign> make_hybrid_adaptive(std::uint64_t seed) {
  return std::make_unique<AdaptiveCampaign>(seed);
}

}  // namespace metrobench
