// Time-series sampler: periodic snapshots of registered probes (channel
// utilization, event-queue depth, client buffer occupancy, batching queue
// depth) along the simulation clock.
//
// Metrics answer "how much, in total"; traces answer "what happened, when";
// the sampler answers "how did it evolve" — the utilization-vs-time curves
// that capacity planning reads. Design rules match the rest of obs:
//   * driven by *simulation* time: instrumented loops call advance(now) and
//     the sampler emits one row per crossed interval tick;
//   * bounded memory: a ring of max_samples rows; overwritten rows and
//     ticks skipped by a large time jump are counted in dropped();
//   * detached by default: entry points take an optional `obs::Sampler*`
//     and pay one pointer test when it is null (see ProbeScope).
//
// Export is JSONL, one row per line:
//   {"t":12.0,"series":{"batching.queue_depth":4,"sim.event_queue.pending":7}}
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace vodbcast::obs {

class Sampler {
 public:
  struct Options {
    double interval_min = 1.0;       ///< sim-minutes between rows
    std::size_t max_samples = 4096;  ///< ring bound
  };

  /// One row: probe readings taken together at sim time `t`.
  struct Sample {
    double t = 0.0;
    std::vector<std::pair<std::string, double>> series;
  };

  using Probe = std::function<double()>;

  /// Preconditions: interval_min > 0, max_samples >= 1.
  Sampler() : Sampler(Options{}) {}
  explicit Sampler(Options options);

  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  /// Registers a named series; every subsequent row reads `probe` once.
  /// Returns a handle for unregister_probe(). Probes must outlive their
  /// registration — use a ProbeScope to tie them to a simulation scope.
  std::size_t register_probe(std::string name, Probe probe);
  void unregister_probe(std::size_t id);

  /// Advances the sampler's clock to `sim_time_min`, emitting one row per
  /// interval tick crossed (the first row lands on t = 0). Never emits more
  /// than max_samples rows per call: a huge jump skips the leading ticks
  /// (the probes could only report current state anyway) and counts them as
  /// dropped, saturating at the largest std::uint64_t. An interval too small
  /// to move the tick at this time resumes the grid just past `sim_time_min`.
  void advance(double sim_time_min);

  /// Emits one row at `sim_time_min` regardless of the tick grid.
  void sample_now(double sim_time_min);

  [[nodiscard]] std::size_t probe_count() const noexcept {
    return probes_.size();
  }
  /// Rows currently retained (<= capacity()).
  [[nodiscard]] std::size_t size() const noexcept { return ring_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept {
    return options_.max_samples;
  }
  [[nodiscard]] double interval_min() const noexcept {
    return options_.interval_min;
  }
  /// Rows ever emitted, including overwritten ones (excludes skipped ticks).
  [[nodiscard]] std::uint64_t recorded() const noexcept { return recorded_; }
  /// Rows lost: ring overwrites + ticks skipped by large advances.
  [[nodiscard]] std::uint64_t dropped() const noexcept;

  /// Retained rows, oldest first.
  [[nodiscard]] std::vector<Sample> samples() const;

  /// One JSON object per line, same order as samples().
  [[nodiscard]] std::string to_jsonl() const;

  void clear() noexcept;

 private:
  struct ProbeEntry {
    std::size_t id;
    std::string name;
    Probe probe;
  };

  Options options_;
  std::vector<ProbeEntry> probes_;
  std::size_t next_id_ = 0;
  std::vector<Sample> ring_;
  std::uint64_t recorded_ = 0;
  std::uint64_t skipped_ = 0;
  double next_tick_ = 0.0;
};

/// Null-tolerant RAII attachment: registers probes on a possibly-null
/// sampler and unregisters them on destruction, so simulation locals can
/// back probes without outliving them.
///
///   obs::ProbeScope probes(config.sampler);
///   probes.add("sim.event_queue.pending",
///              [&events] { return static_cast<double>(events.pending()); });
///   ...
///   probes.advance(now);   // one pointer test when no sampler is attached
class ProbeScope {
 public:
  explicit ProbeScope(Sampler* sampler) noexcept : sampler_(sampler) {}
  ~ProbeScope() {
    for (const auto id : ids_) {
      sampler_->unregister_probe(id);
    }
  }

  ProbeScope(const ProbeScope&) = delete;
  ProbeScope& operator=(const ProbeScope&) = delete;

  void add(std::string name, Sampler::Probe probe) {
    if (sampler_ != nullptr) {
      ids_.push_back(
          sampler_->register_probe(std::move(name), std::move(probe)));
    }
  }

  void advance(double sim_time_min) {
    if (sampler_ != nullptr) {
      sampler_->advance(sim_time_min);
    }
  }

  [[nodiscard]] bool attached() const noexcept { return sampler_ != nullptr; }

 private:
  Sampler* sampler_;
  std::vector<std::size_t> ids_;
};

}  // namespace vodbcast::obs
