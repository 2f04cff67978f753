// metrobench: one process runs one metro campaign, or only its set-up.
//
//   metrobench --workload sb_metro --seed 7 --mode clean [--cross-check]
//   metrobench --workload sb_metro --seed 7 --mode traced --spans-out s.jsonl
//   metrobench --workload sb_metro --seed 7 --mode setup
//
// Prints one JSON object on stdout. run.py starts a fresh process per
// campaign, so ru_maxrss is that campaign's peak and not a high-water mark
// left by an earlier one, and setup_s is measured from process start.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "campaign.hpp"
#include "ledger.hpp"

namespace {

using metrobench::Campaign;
using metrobench::Outcome;

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string outcome_fields(const Outcome& o) {
  std::string violations = "[";
  for (std::size_t i = 0; i < o.violations.size(); ++i) {
    violations += (i == 0 ? "" : ",") + json_string(o.violations[i]);
  }
  violations += "]";
  return "\"wall_s\":" + json_number(o.wall_s) +
         ",\"arrivals\":" + std::to_string(o.arrivals) +
         ",\"failed\":" + std::to_string(o.failed) +
         ",\"digest\":" + json_string(o.digest) +
         ",\"violations\":" + violations;
}

std::unique_ptr<Campaign> make_campaign(const std::string& workload,
                                        std::uint64_t seed) {
  if (workload == "sb_metro") {
    return metrobench::make_sb_metro(seed);
  }
  if (workload == "hybrid_adaptive") {
    return metrobench::make_hybrid_adaptive(seed);
  }
  if (workload == "metro_federation") {
    return metrobench::make_metro_federation(seed);
  }
  return nullptr;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "metrobench: %s\nusage: metrobench --workload NAME --seed N"
               " --mode setup|clean|traced [--cross-check]"
               " [--spans-out PATH]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::int64_t process_start = metrobench::now_ns();
  std::string workload;
  std::string mode;
  std::string spans_out;
  std::uint64_t seed = 0;
  bool have_seed = false;
  bool cross_check = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--mode" && has_value) {
      mode = argv[++i];
    } else if (arg == "--spans-out" && has_value) {
      spans_out = argv[++i];
    } else if (arg == "--seed" && has_value) {
      char* end = nullptr;
      seed = std::strtoull(argv[++i], &end, 10);
      have_seed = end != nullptr && *end == '\0';
    } else if (arg == "--cross-check") {
      cross_check = true;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_seed || (mode != "setup" && mode != "clean" && mode != "traced")) {
    return usage("--seed and --mode are required");
  }

  try {
    const auto campaign = make_campaign(workload, seed);
    if (campaign == nullptr) {
      return usage(("unknown workload " + workload).c_str());
    }
    const double setup_s =
        static_cast<double>(metrobench::now_ns() - process_start) * 1e-9;
    std::string json = "{\"workload\":" + json_string(workload) +
                       ",\"seed\":" + std::to_string(seed) +
                       ",\"mode\":" + json_string(mode) +
                       ",\"threads\":" + std::to_string(campaign->threads()) +
                       ",\"setup_s\":" + json_number(setup_s) +
                       ",\"build\":{\"type\":" +
                       json_string(METROBENCH_BUILD_TYPE) +
                       ",\"flags\":" + json_string(METROBENCH_BUILD_FLAGS) +
                       ",\"compiler\":" + json_string(METROBENCH_COMPILER) +
                       "}";
    if (mode != "setup") {
      Outcome clean = campaign->run();
      if (cross_check) {
        campaign->cross_check(clean);
      }
      json += "," + outcome_fields(clean);
      if (mode == "traced") {
        metrobench::Ledger ledger;
        const auto traced = campaign->run_traced(clean, ledger);
        if (!spans_out.empty() && !ledger.write_jsonl(spans_out)) {
          std::fprintf(stderr, "metrobench: cannot write %s\n",
                       spans_out.c_str());
          return 1;
        }
        std::string layers;
        for (const auto& [name, value] : traced.layers) {
          layers += (layers.empty() ? "" : ",") + json_string(name) + ":" +
                    json_number(value);
        }
        json += ",\"traced\":{" + outcome_fields(traced.outcome) +
                ",\"layers\":{" + layers + "}}";
      }
      rusage usage_now{};
      getrusage(RUSAGE_SELF, &usage_now);
      json += ",\"rss_kb\":" + std::to_string(usage_now.ru_maxrss);
    }
    std::printf("%s}\n", json.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "metrobench: %s\n", e.what());
    return 1;
  }
  return 0;
}
