// The machine-readable bench-result schema ("vodbcast-bench-v1") and the
// run-over-run diff engine behind tools/bench_diff.
//
// Every bench binary (via bench/harness) writes one BENCH_<name>.json:
//
//   {
//     "schema": "vodbcast-bench-v1",
//     "bench": "fig7_access_latency",
//     "timestamp": "2026-08-05T12:00:00Z",
//     "git_sha": "0123abcd4567",
//     "build": {"type":"RelWithDebInfo","compiler":"GNU 13.2.0",
//               "flags":"-O2 -g -DNDEBUG","sanitize":false},
//     "wall_ms": 182.4,
//     "cases": [
//       {"name":"figure7","reps":5,"warmup":1,
//        "wall_ns":{"samples":5,"min":...,"max":...,"mean":...,
//                   "p50":...,"p95":...,"p99":...},
//        "cpu_ns":{...}}
//     ],
//     "trace": {"recorded":0,"dropped":0,"capacity":65536},
//     "metrics": { ...full obs::Registry snapshot, see metrics.hpp... }
//   }
//
// The same structs serve both directions — the harness writes them, the
// diff tool and the round-trip tests parse them back — so schema drift
// breaks loudly in CI instead of silently in a downstream scraper.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace vodbcast::obs {

inline constexpr const char* kBenchSchemaV1 = "vodbcast-bench-v1";

/// Order statistics over a batch of timing samples (nanoseconds).
/// Quantiles interpolate linearly between order statistics.
struct TimingStats {
  std::uint64_t samples = 0;
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;

  [[nodiscard]] static TimingStats from_samples(std::vector<double> values);
};

/// One timed case inside a bench binary.
struct BenchCaseResult {
  std::string name;
  int reps = 0;
  int warmup = 0;
  TimingStats wall_ns;
  TimingStats cpu_ns;
};

/// One bench binary's full result file.
struct BenchRunResult {
  std::string bench;
  std::string timestamp;   ///< ISO-8601 UTC; empty when unknown
  std::string git_sha;     ///< build-time HEAD; "unknown" outside a checkout
  std::string build_type;  ///< CMAKE_BUILD_TYPE
  std::string compiler;
  std::string build_flags;
  bool sanitize = false;
  int threads = 1;         ///< TaskPool workers the run was given (1 = serial)
  /// std::thread::hardware_concurrency() of the host that produced the run;
  /// 0 when the result predates the field (or the host could not tell).
  /// Diffing runs from differently-sized hosts is a noise source worth
  /// seeing in the provenance block.
  int host_threads = 0;
  double wall_ms = 0.0;    ///< whole-process wall time
  std::vector<BenchCaseResult> cases;
  std::uint64_t trace_recorded = 0;
  std::uint64_t trace_dropped = 0;
  std::uint64_t trace_capacity = 0;
  /// Full metrics snapshot (the Registry::to_json object), parsed.
  util::json::Value metrics;

  [[nodiscard]] std::string to_json() const;
};

/// Parses one BENCH_*.json document. Throws util::json::ParseError on
/// malformed JSON and ContractViolation on schema mismatch.
[[nodiscard]] BenchRunResult parse_bench_result(const std::string& text);

// ---------------------------------------------------------------------------
// Run-over-run diffing

struct DiffOptions {
  /// Relative wall-p50 change tolerated before a case counts as a
  /// regression (0.05 = 5%). Improvements use the same band.
  double noise_threshold = 0.05;
  /// Cases whose baseline p50 is under this many ns are too fast to
  /// compare reliably; they are reported but never gate.
  double min_time_ns = 1000.0;
};

struct CaseDelta {
  enum class Verdict {
    kUnchanged,   ///< inside the noise band (or under min_time_ns)
    kImproved,    ///< faster by more than the noise band
    kRegressed,   ///< slower by more than the noise band
    kOnlyBase,    ///< case vanished from the candidate
    kOnlyCand,    ///< new case, nothing to compare against
  };
  std::string bench;
  std::string name;
  double base_p50_ns = 0.0;
  double cand_p50_ns = 0.0;
  double ratio = 0.0;  ///< cand/base; 0 when one side is missing
  Verdict verdict = Verdict::kUnchanged;
};

struct DiffReport {
  std::vector<CaseDelta> deltas;
  /// Non-gating observations: metric counter drift, benches present on one
  /// side only, trace drops appearing.
  std::vector<std::string> notes;
  std::uint64_t regressions = 0;
  std::uint64_t improvements = 0;

  [[nodiscard]] bool has_regression() const noexcept {
    return regressions > 0;
  }
  /// Human-oriented table + notes.
  [[nodiscard]] std::string render() const;
};

/// Compares two result sets (any order; matched by bench + case name).
[[nodiscard]] DiffReport diff_bench_results(
    const std::vector<BenchRunResult>& baseline,
    const std::vector<BenchRunResult>& candidate,
    const DiffOptions& options = {});

// ---------------------------------------------------------------------------
// Alternating pairs: one pair cannot resolve a change on a noisy host, N can.

/// One case over N alternating (baseline, candidate) result pairs.
struct PairedCaseDelta {
  std::string bench;
  std::string name;
  std::size_t pairs = 0;        ///< pairs that ran the case on both sides
  double base_median_ns = 0.0;  ///< median of the baseline runs' wall p50
  double cand_median_ns = 0.0;  ///< median of the candidate runs' wall p50
  double base_iqr_ns = 0.0;     ///< Q3 - Q1 of the baseline runs' wall p50
  double ratio_median = 0.0;    ///< median per-pair cand/base; 0 if none
  std::size_t wins = 0;         ///< pairs the candidate ran faster
  std::size_t losses = 0;       ///< pairs the candidate ran slower
  CaseDelta::Verdict verdict = CaseDelta::Verdict::kUnchanged;
};

struct PairedDiffReport {
  std::size_t pairs = 0;  ///< N
  std::vector<PairedCaseDelta> deltas;
  /// Non-gating observations: cases compared in fewer than N pairs.
  std::vector<std::string> notes;
  std::uint64_t regressions = 0;
  std::uint64_t improvements = 0;

  [[nodiscard]] bool has_regression() const noexcept {
    return regressions > 0;
  }
  /// Human-oriented table + notes.
  [[nodiscard]] std::string render() const;
};

/// Compares N alternating result sets: `runs` holds baseline 1, candidate
/// 1, ..., baseline N, candidate N (each matched by bench + case name).
/// Per case it reports the median per-pair wall-p50 ratio, wins/N and the
/// baseline's IQR. A case regresses only when the candidate loses at
/// least 80% of its pairs and the gap between the two sides' median p50s
/// exceeds the baseline's IQR; it improves under the mirrored rule. Cases
/// whose baseline median is under options.min_time_ns never gate;
/// options.noise_threshold plays no part. Precondition: runs.size() is
/// even and non-zero.
[[nodiscard]] PairedDiffReport diff_bench_pairs(
    const std::vector<std::vector<BenchRunResult>>& runs,
    const DiffOptions& options = {});

}  // namespace vodbcast::obs
