// bench_diff: compare directories of BENCH_*.json result files (schema
// "vodbcast-bench-v1", written by the bench/ binaries) and exit non-zero
// when any case regressed.
//
//   bench_diff BASELINE_DIR CANDIDATE_DIR [--threshold 0.05]
//              [--min-time-ns 1000] [--verbose]
//   bench_diff BASE_1 CAND_1 ... BASE_N CAND_N [--min-time-ns 1000]
//              [--verbose]
//
// Two directories are one pair: a case regresses when its wall p50 moved
// past the noise threshold. 2N directories are N alternating pairs: per
// case the median per-pair ratio, wins/N and the baseline's IQR, and a
// case regresses only when the candidate loses at least 80% of the pairs
// and the gap between the medians exceeds the baseline's IQR.
//
// Typical flow (see docs/OBSERVABILITY.md):
//   scripts/run_bench_suite.sh --out base      # on main
//   scripts/run_bench_suite.sh --out cand      # on your branch
//   build/tools/bench_diff base cand
#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/bench_result.hpp"
#include "util/args.hpp"
#include "util/contracts.hpp"
#include "util/json.hpp"

namespace {

namespace fs = std::filesystem;
using vodbcast::obs::BenchRunResult;

/// Loads every BENCH_*.json in `dir`, sorted by filename for stable output.
std::vector<BenchRunResult> load_dir(const std::string& dir) {
  std::vector<fs::path> paths;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (!entry.is_regular_file()) {
      continue;
    }
    const auto filename = entry.path().filename().string();
    if (filename.rfind("BENCH_", 0) == 0 &&
        entry.path().extension() == ".json") {
      paths.push_back(entry.path());
    }
  }
  std::sort(paths.begin(), paths.end());
  std::vector<BenchRunResult> results;
  results.reserve(paths.size());
  for (const auto& path : paths) {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "bench_diff: cannot read %s\n",
                   path.string().c_str());
      continue;
    }
    std::ostringstream text;
    text << in.rdbuf();
    try {
      results.push_back(vodbcast::obs::parse_bench_result(text.str()));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bench_diff: skipping %s: %s\n",
                   path.string().c_str(), e.what());
    }
  }
  return results;
}

int usage() {
  std::fputs(
      "usage: bench_diff BASELINE_DIR CANDIDATE_DIR [--threshold FRAC]\n"
      "                  [--min-time-ns NS] [--verbose]\n"
      "       bench_diff BASE_1 CAND_1 ... BASE_N CAND_N [--min-time-ns NS]\n"
      "                  [--verbose]\n"
      "  --threshold FRAC    one pair: relative wall-p50 change tolerated\n"
      "                      before a case gates (default 0.05 = 5%)\n"
      "  --min-time-ns NS    baseline p50 below this never gates\n"
      "                      (default 1000)\n"
      "  --verbose           print every case, not just the changed ones\n"
      "N pairs gate a case that loses >= 80% of them by more than the\n"
      "baseline's IQR\n"
      "exit status: 0 = no regression, 1 = regression, 2 = usage/IO error\n",
      stderr);
  return 2;
}

/// Prints the cases outside the noise band (every case with --verbose)
/// and the summary; exits 1 on a regression.
template <typename Report>
int print(Report report, bool verbose) {
  const bool regressed = report.has_regression();
  if (!verbose) {
    std::erase_if(report.deltas, [](const auto& d) {
      return d.verdict == vodbcast::obs::CaseDelta::Verdict::kUnchanged;
    });
  }
  std::fputs(report.render().c_str(), stdout);
  return regressed ? 1 : 0;
}

int run(const vodbcast::util::ArgParser& args) {
  const std::size_t dirs = args.positional_count();
  if (dirs < 2 || dirs % 2 != 0) {
    return usage();
  }
  if (const auto flag =
          args.unknown_flag({"threshold", "min-time-ns", "verbose"})) {
    std::fprintf(stderr, "bench_diff: unknown flag --%s\n", flag->c_str());
    return usage();
  }
  if (dirs > 2 && args.has("threshold")) {
    std::fputs("bench_diff: --threshold applies to one pair; N pairs gate "
               "on their wins and the baseline's IQR\n",
               stderr);
    return 2;
  }
  vodbcast::obs::DiffOptions options;
  options.noise_threshold = args.get_double("threshold", 0.05);
  options.min_time_ns = args.get_double("min-time-ns", 1000.0);
  VB_EXPECTS_MSG(options.noise_threshold >= 0.0,
                 "--threshold must be non-negative");
  std::vector<std::vector<BenchRunResult>> runs;
  for (std::size_t i = 0; i < dirs; ++i) {
    const auto& dir = args.positional(i);
    if (!fs::is_directory(dir)) {
      std::fprintf(stderr, "bench_diff: not a directory: %s\n", dir.c_str());
      return 2;
    }
    runs.push_back(load_dir(dir));
    if (runs.back().empty()) {
      std::fprintf(stderr, "bench_diff: no parsable BENCH_*.json in %s\n",
                   dir.c_str());
      return 2;
    }
  }

  const bool verbose = args.has("verbose");
  if (dirs == 2) {
    return print(vodbcast::obs::diff_bench_results(runs[0], runs[1], options),
                 verbose);
  }
  return print(vodbcast::obs::diff_bench_pairs(runs, options), verbose);
}

}  // namespace

// A malformed flag throws from the parser or a typed read: a usage error.
int main(int argc, char** argv) {
  try {
    return run(vodbcast::util::ArgParser(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_diff: %s\n", e.what());
    return 2;
  }
}
