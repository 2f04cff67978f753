// One benchmark workload: a seeded metro campaign run through the library's
// public entry point (timed, with its output checks) and, separately,
// replayed layer by layer under the Ledger (the traced run).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ledger.hpp"
#include "sim/stats.hpp"

namespace metrobench {

/// What one campaign produced, judged against the program's contract.
struct Outcome {
  double wall_s = 0.0;          ///< the campaign call, wall clock
  std::uint64_t arrivals = 0;   ///< arrivals simulated
  std::uint64_t failed = 0;     ///< arrivals that broke the contract
  std::string digest;           ///< report digest; equal reports, equal digests
  std::vector<std::string> violations;

  /// Records a broken check that no single arrival can be blamed for: the
  /// whole campaign counts as failed.
  void fail_all(std::string why) {
    violations.push_back(std::move(why));
    failed = arrivals;
  }
};

/// Per-layer metrics of one traced run, by metric name. A layer the
/// workload does not reach is left out and reported as 0.
using LayerValues = std::map<std::string, double>;

struct Traced {
  /// The traced run; fails every arrival when its report is not the clean
  /// run's.
  Outcome outcome;
  LayerValues layers;
};

class Campaign {
 public:
  virtual ~Campaign() = default;

  /// Threads the campaign runs on: the caller's plus any pool workers.
  [[nodiscard]] virtual unsigned threads() const = 0;

  /// One timed campaign through the public entry point, then its checks.
  [[nodiscard]] virtual Outcome run() = 0;

  /// Checks that need a second, untimed campaign (serial vs pooled).
  virtual void cross_check(Outcome& outcome) { (void)outcome; }

  /// The traced run. `clean` is this process's run() outcome: the trace
  /// must reproduce its report, and the wall-time difference is the
  /// tracing overhead.
  [[nodiscard]] virtual Traced run_traced(const Outcome& clean,
                                          Ledger& ledger) = 0;
};

/// Constructs the workload's scheme/design/plan, topology or allocator —
/// the set-up that setup_s times.
[[nodiscard]] std::unique_ptr<Campaign> make_sb_metro(std::uint64_t seed);
[[nodiscard]] std::unique_ptr<Campaign> make_hybrid_adaptive(
    std::uint64_t seed);
[[nodiscard]] std::unique_ptr<Campaign> make_metro_federation(
    std::uint64_t seed);

/// FNV-1a over the exact bits of a report's fields.
class Digest {
 public:
  Digest& add(std::uint64_t v) noexcept;
  Digest& add(double v) noexcept;
  Digest& add(const std::string& s) noexcept;
  /// Exact distributions: every sample. Folded ones: moments, extremes,
  /// quartiles, tail and fold count.
  Digest& add(const vodbcast::sim::Distribution& d);
  [[nodiscard]] std::string hex() const;

 private:
  void bytes(const void* data, std::size_t n) noexcept;
  std::uint64_t h_ = 14695981039346656037ULL;
};

}  // namespace metrobench
