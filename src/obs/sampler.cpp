#include "obs/sampler.hpp"

#include <algorithm>
#include <sstream>

#include "obs/sink.hpp"
#include "util/contracts.hpp"
#include "util/json.hpp"

namespace vodbcast::obs {

using util::json::number;

Sampler::Sampler(Options options) : options_(options) {
  VB_EXPECTS(options_.interval_min > 0.0);
  VB_EXPECTS(options_.max_samples >= 1);
  ring_.reserve(std::min<std::size_t>(options_.max_samples, 1024));
}

std::size_t Sampler::register_probe(std::string name, Probe probe) {
  VB_EXPECTS(probe != nullptr);
  const std::size_t id = next_id_++;
  probes_.push_back(ProbeEntry{id, std::move(name), std::move(probe)});
  return id;
}

void Sampler::unregister_probe(std::size_t id) {
  const auto it =
      std::find_if(probes_.begin(), probes_.end(),
                   [id](const ProbeEntry& e) { return e.id == id; });
  VB_EXPECTS_MSG(it != probes_.end(), "sampler: unknown probe id");
  probes_.erase(it);
}

void Sampler::advance(double sim_time_min) {
  if (next_tick_ > sim_time_min) {
    return;
  }
  const double span = (sim_time_min - next_tick_) / options_.interval_min;
  const auto pending = static_cast<std::uint64_t>(span) + 1;
  if (pending > options_.max_samples) {
    // The skipped ticks would all have read today's probe state anyway;
    // recording them would only flood the ring with fabricated history.
    const std::uint64_t skip = pending - options_.max_samples;
    skipped_ += skip;
    next_tick_ += static_cast<double>(skip) * options_.interval_min;
  }
  while (next_tick_ <= sim_time_min) {
    sample_now(next_tick_);
    next_tick_ += options_.interval_min;
  }
}

void Sampler::sample_now(double sim_time_min) {
  Sample row;
  row.t = sim_time_min;
  row.series.reserve(probes_.size());
  for (const auto& entry : probes_) {
    row.series.emplace_back(entry.name, entry.probe());
  }
  if (ring_.size() < options_.max_samples) {
    ring_.push_back(std::move(row));
  } else {
    ring_[static_cast<std::size_t>(recorded_ % options_.max_samples)] =
        std::move(row);
  }
  ++recorded_;
}

std::uint64_t Sampler::dropped() const noexcept {
  return (recorded_ - ring_.size()) + skipped_;
}

std::vector<Sampler::Sample> Sampler::samples() const {
  std::vector<Sample> out;
  out.reserve(ring_.size());
  if (recorded_ <= options_.max_samples) {
    out = ring_;
  } else {
    // Oldest surviving row sits at the overwrite cursor.
    const auto cursor =
        static_cast<std::size_t>(recorded_ % options_.max_samples);
    out.insert(out.end(), ring_.begin() + static_cast<std::ptrdiff_t>(cursor),
               ring_.end());
    out.insert(out.end(), ring_.begin(),
               ring_.begin() + static_cast<std::ptrdiff_t>(cursor));
  }
  return out;
}

std::string Sampler::to_jsonl() const {
  std::ostringstream os;
  for (const auto& row : samples()) {
    os << "{\"t\":" << number(row.t) << ",\"series\":{";
    for (std::size_t i = 0; i < row.series.size(); ++i) {
      os << (i ? "," : "") << util::json::quote(row.series[i].first) << ':'
         << number(row.series[i].second);
    }
    os << "}}\n";
  }
  return os.str();
}

void Sampler::clear() noexcept {
  ring_.clear();
  recorded_ = 0;
  skipped_ = 0;
  next_tick_ = 0.0;
}

void publish_drop_metrics(Sink& sink, const Sampler* sampler) {
  // Top the counters up to the sidecars' current totals instead of adding,
  // so repeated export points (footer + file dump) never double count.
  const auto top_up = [](Counter& counter, std::uint64_t total) {
    const auto seen = counter.value();
    if (total > seen) {
      counter.add(total - seen);
    }
  };
  top_up(sink.metrics.counter("obs.trace.dropped"), sink.trace.dropped());
  top_up(sink.metrics.counter("obs.spans.dropped"), sink.spans.dropped());
  if (sampler != nullptr) {
    top_up(sink.metrics.counter("obs.series.dropped"), sampler->dropped());
  }
}

}  // namespace vodbcast::obs
