// End-to-end simulation of a metropolitan VoD service under a scheme.
//
// Clients arrive by a Poisson process, pick videos by popularity, tune to
// the next Segment-1 broadcast and (for SB) run the exact reception plan.
// The report carries the empirical latency distribution — which must match
// the closed-form worst case — plus client buffer peaks and tuner counts.
#pragma once

#include <memory>
#include <string>

#include "obs/sampler.hpp"
#include "obs/sink.hpp"
#include "schemes/scheme.hpp"
#include "sim/broadcast_server.hpp"
#include "sim/replicate.hpp"
#include "sim/stats.hpp"
#include "util/rng.hpp"
#include "util/task_pool.hpp"
#include "workload/request.hpp"

namespace vodbcast::fault {
class Injector;
}  // namespace vodbcast::fault

namespace vodbcast::sim {

struct SimulationConfig {
  core::Minutes horizon{600.0};       ///< observation window, > 0
  double arrivals_per_minute = 10.0;  ///< aggregate Poisson rate
  std::uint64_t seed = 42;
  /// Run the exact SB reception plan per client (slower; SB schemes only).
  bool plan_clients = false;
  /// Serve reception plans through the phase-keyed client::PlanCache: SB
  /// schedules repeat with period P = lcm(slot periods), so every arrival
  /// phase shares one plan. Without a sink or a fault plan with episodes,
  /// nothing walks an arrival's downloads, and the run reads each phase's
  /// three verdicts from the cache's 16-byte-per-phase summary table;
  /// otherwise each phase keeps one canonical plan served as a shifted
  /// view. Output is bit-identical either way (the invariance is pinned by
  /// tests/test_plan_cache.cpp); off recomputes per arrival — the A/B lever
  /// for bench/ext_metro_scale.
  bool plan_cache = true;
  /// Sample cap for the report's Distributions (latency, buffer peaks,
  /// fault penalties): 0 (the default) retains every sample exactly;
  /// a positive cap folds into a bounded quantile sketch past the cap so
  /// report memory stays O(1) in clients. See Distribution::set_sample_cap.
  std::size_t stats_sample_cap = 0;
  /// Optional observability attachment (not owned). When set, the run
  /// records "sim.*" / "client.*" metrics, traces client arrival,
  /// tune-in, download, jitter and channel-slot events, and records a
  /// session span tree per client (with fault_episode, repair, fault_hit
  /// and fault_degraded spans under a fault plan). Null (the default)
  /// costs one pointer test per instrumented site.
  obs::Sink* sink = nullptr;
  /// Optional time-series sampler (not owned). When set, the run registers
  /// "sim.clients_served", "sim.jitter_events" and
  /// "client.last_buffer_peak_units" probes and advances the sampler along
  /// the arrival clock. Null costs one pointer test per arrival.
  obs::Sampler* sampler = nullptr;
  /// Optional fault injector (not owned; queries are const, so one
  /// instance is safely shared across replications). When set, each
  /// planned client's downloads are assessed against the fault plan and
  /// the recovery policy is played forward: damage is repaired by catch-up
  /// repetitions within the retry budget (with the wait penalty recorded)
  /// or surfaced as degradation — never as silent jitter. Null, or a plan
  /// with zero episodes, is bit-identical to today's behavior. No other
  /// client walks downloads, so a plan with episodes needs a
  /// SkyscraperScheme and plan_clients set; otherwise simulate() throws
  /// ContractViolation instead of reporting no damage.
  const fault::Injector* injector = nullptr;
};

struct SimulationReport {
  std::string scheme;
  Distribution latency_minutes;       ///< empirical tune-in waits
  Distribution buffer_peak_mbits;     ///< per-client buffer peaks (SB only)
  int max_concurrent_downloads = 0;   ///< across all clients (SB only)
  std::uint64_t clients_served = 0;
  std::uint64_t jitter_events = 0;    ///< must stay 0 for a correct scheme
  core::MbitPerSec peak_server_rate{0.0};
  // Fault accounting (all zero without an injector): every hit is either
  // repaired or surfaced as degradation.
  std::uint64_t fault_hits = 0;       ///< downloads damaged by an episode
  std::uint64_t fault_repairs = 0;    ///< healed within the recovery policy
  std::uint64_t fault_degraded = 0;   ///< survived the retry budget
  Distribution fault_penalty_minutes; ///< per-repair extra wait, minutes
};

/// Simulates `scheme` on `input` under the given workload.
/// Precondition: the scheme is feasible at input.server_bandwidth.
[[nodiscard]] SimulationReport simulate(const schemes::BroadcastScheme& scheme,
                                        const schemes::DesignInput& input,
                                        const SimulationConfig& config);

/// R independent replications of simulate() through sim::replicate (its
/// header has the seed, fold and CI rules), side by side on `pool` (null =
/// serial), each into a private shard of config.sink. The fold merges
/// sample distributions, sums counters and maxes peaks; the replication
/// means are the per-replication mean tune-in waits. config.sampler is not
/// forwarded (a time-series of R interleaved clocks is meaningless).
[[nodiscard]] Replicated<SimulationReport> simulate_replicated(
    const schemes::BroadcastScheme& scheme, const schemes::DesignInput& input,
    const SimulationConfig& config, std::size_t reps,
    util::TaskPool* pool = nullptr);

}  // namespace vodbcast::sim
