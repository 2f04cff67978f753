#include "obs/sampler.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "obs/sink.hpp"
#include "util/contracts.hpp"
#include "util/json.hpp"
#include "util/math.hpp"

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
  const double interval = options_.interval_min;
  // Ticks crossed, counted in double: with a tiny interval the count
  // overflows every integer type.
  const double crossed =
      std::floor((sim_time_min - next_tick_) / interval) + 1.0;
  const auto cap = static_cast<double>(options_.max_samples);
  if (crossed > cap) {
    // The skipped ticks would all have read today's probe state anyway;
    // recording them would only flood the ring with fabricated history.
    const double skip = crossed - cap;
    const std::uint64_t count = skip < 0x1p64
                                    ? static_cast<std::uint64_t>(skip)
                                    : std::numeric_limits<std::uint64_t>::max();
    skipped_ = util::checked_add(skipped_, count)
                   .value_or(std::numeric_limits<std::uint64_t>::max());
    next_tick_ = std::min(next_tick_ + skip * interval, sim_time_min);
  }
  for (std::size_t rows = 0;
       rows < options_.max_samples && next_tick_ <= sim_time_min; ++rows) {
    sample_now(next_tick_);
    next_tick_ += interval;
  }
  if (next_tick_ <= sim_time_min) {
    // Below the clock's resolution at this time, adding the interval no
    // longer moves the tick: resume the grid just past now rather than
    // emit the same rows again on every later call.
    next_tick_ =
        std::nextafter(sim_time_min, std::numeric_limits<double>::infinity());
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
  return util::checked_add(recorded_ - ring_.size(), skipped_)
      .value_or(std::numeric_limits<std::uint64_t>::max());
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
