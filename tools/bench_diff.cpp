// bench_diff: compare two directories of BENCH_*.json result files
// (schema "vodbcast-bench-v1", written by the bench/ binaries) and exit
// non-zero when any case regressed beyond the noise threshold.
//
//   bench_diff BASELINE_DIR CANDIDATE_DIR [--threshold 0.05]
//              [--min-time-ns 1000] [--verbose]
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
      "  --threshold FRAC    relative wall-p50 change tolerated before a\n"
      "                      case gates (default 0.05 = 5%)\n"
      "  --min-time-ns NS    baseline p50 below this never gates\n"
      "                      (default 1000)\n"
      "  --verbose           print every case, not just the changed ones\n"
      "exit status: 0 = no regression, 1 = regression, 2 = usage/IO error\n",
      stderr);
  return 2;
}

int run(const vodbcast::util::ArgParser& args) {
  if (args.positional_count() != 2) {
    return usage();
  }
  if (const auto flag =
          args.unknown_flag({"threshold", "min-time-ns", "verbose"})) {
    std::fprintf(stderr, "bench_diff: unknown flag --%s\n", flag->c_str());
    return usage();
  }
  vodbcast::obs::DiffOptions options;
  options.noise_threshold = args.get_double("threshold", 0.05);
  options.min_time_ns = args.get_double("min-time-ns", 1000.0);
  VB_EXPECTS_MSG(options.noise_threshold >= 0.0,
                 "--threshold must be non-negative");
  const auto& base_dir = args.positional(0);
  const auto& cand_dir = args.positional(1);
  for (const auto& dir : {base_dir, cand_dir}) {
    if (!fs::is_directory(dir)) {
      std::fprintf(stderr, "bench_diff: not a directory: %s\n", dir.c_str());
      return 2;
    }
  }

  const auto baseline = load_dir(base_dir);
  const auto candidate = load_dir(cand_dir);
  if (baseline.empty() || candidate.empty()) {
    std::fprintf(stderr,
                 "bench_diff: no parsable BENCH_*.json in %s\n",
                 baseline.empty() ? base_dir.c_str() : cand_dir.c_str());
    return 2;
  }

  const auto report =
      vodbcast::obs::diff_bench_results(baseline, candidate, options);
  if (args.has("verbose")) {
    std::fputs(report.render().c_str(), stdout);
  } else {
    // Compact mode: only the cases outside the noise band plus the summary.
    auto trimmed = report;
    std::erase_if(trimmed.deltas, [](const auto& d) {
      return d.verdict == vodbcast::obs::CaseDelta::Verdict::kUnchanged;
    });
    std::fputs(trimmed.render().c_str(), stdout);
  }
  return report.has_regression() ? 1 : 0;
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
