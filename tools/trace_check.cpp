// trace_check: replay a --trace-out JSONL file and assert the Skyscraper
// client invariants the paper proves:
//
//   1. no client ever runs more than --max-loaders concurrent segment
//      downloads (the two-loader design, Section 4);
//   2. no jitter events (every reception plan met its deadlines);
//   3. each client's disk buffer (content fetched minus content played,
//      in units of the segment-1 slot D1) never goes negative and, when
//      --max-units is given, never exceeds it (the W-capped bound
//      60*b*D1*(W-1) stated in units);
//   4. with --realloc, the adaptive control plane's drain contract: no
//      download of a title spans that title's drain_complete instant — a
//      demoted title's channels must fully drain (every tuned-in client
//      finished on the old plan) before the bandwidth is retuned.
//   5. with --faults, the fault-recovery contract: injected damage never
//      becomes silent jitter — the run must carry zero jitter events, and
//      every per-client fault_hit must be matched by exactly one repair or
//      fault_degraded on the same (client, channel), so each episode's
//      damage is either healed (with its wait penalty recorded) or
//      surfaced as degradation.
//
//   trace_check TRACE.jsonl [--max-loaders 2] [--max-units N] [--realloc]
//               [--faults] [--verbose]
//
// D1 is inferred as the shortest download in the trace (a segment-1 fetch
// lasts exactly one slot). Download intervals are reconstructed from
// segment_download_start events alone — the start carries its duration —
// so a ring-truncated trace missing some *end* events still checks.
// Clients without a tune_in event (truncated head) skip the buffer check.
// Exit status: 0 = all invariants hold, 1 = violation, 2 = usage/IO error.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "util/args.hpp"
#include "util/json.hpp"

namespace {

using vodbcast::util::json::Value;

struct Download {
  double start = 0.0;
  double length = 0.0;
  std::uint64_t video = 0;
};

struct ClientTrack {
  bool tuned = false;
  double tune_time = 0.0;
  std::uint64_t jitter_events = 0;
  std::vector<Download> downloads;
};

int usage() {
  std::fputs(
      "usage: trace_check TRACE.jsonl [--max-loaders N] [--max-units N]\n"
      "                   [--verbose]\n"
      "  --max-loaders N   concurrent-download cap per client (default 2)\n"
      "  --max-units N     peak buffer cap in units of D1 (default: only\n"
      "                    check the buffer never goes negative)\n"
      "  --realloc         also check the adaptive drain contract: no\n"
      "                    download spans its title's drain_complete\n"
      "  --faults          also check the fault-recovery contract: zero\n"
      "                    jitter events and every fault_hit matched by a\n"
      "                    repair or fault_degraded on its (client, channel)\n"
      "  --verbose         print per-client peaks, not just violations\n",
      stderr);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const vodbcast::util::ArgParser args(argc, argv);
  if (args.positional_count() != 1) {
    return usage();
  }
  if (const auto flag = args.unknown_flag(
          {"max-loaders", "max-units", "verbose", "realloc", "faults"})) {
    std::fprintf(stderr, "trace_check: unknown flag --%s\n", flag->c_str());
    return usage();
  }
  const auto max_loaders = args.get_int("max-loaders", 2);
  const bool has_unit_cap = args.has("max-units");
  const auto max_units = args.get_int("max-units", 0);
  const bool check_realloc = args.has("realloc");
  const bool check_faults = args.has("faults");
  const bool verbose = args.has("verbose");

  const auto& path = args.positional(0);
  std::string text;
  {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "trace_check: cannot read %s\n", path.c_str());
      return 2;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    text = buffer.str();
  }

  std::vector<Value> lines;
  try {
    lines = vodbcast::util::json::parse_jsonl(text);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "trace_check: %s: %s\n", path.c_str(), e.what());
    return 2;
  }

  std::map<std::uint64_t, ClientTrack> clients;
  std::map<std::string, std::uint64_t> kind_counts;
  // --realloc bookkeeping: per-video drain instants and download intervals.
  std::map<std::uint64_t, std::vector<double>> drains;
  std::map<std::uint64_t, std::vector<Download>> video_downloads;
  // --faults bookkeeping: per-(client, channel) damage accounting. Key is
  // client * 2^16 + channel; both fields are bounded well below that in
  // any trace the simulator emits.
  struct FaultAccount {
    std::uint64_t hits = 0;
    std::uint64_t repairs = 0;
    std::uint64_t degraded = 0;
  };
  std::map<std::uint64_t, FaultAccount> fault_accounts;
  std::uint64_t fault_episodes = 0;
  double d1 = 0.0;  // inferred below: shortest download in the trace
  for (const auto& line : lines) {
    const auto event = line.at("event").as_string();
    ++kind_counts[event];
    const auto client =
        static_cast<std::uint64_t>(line.number_or("client", 0.0));
    const double t = line.number_or("t", 0.0);
    const auto video =
        static_cast<std::uint64_t>(line.number_or("video", 0.0));
    if (check_realloc && event == "drain_complete") {
      drains[video].push_back(t);
    }
    if (check_faults && event == "fault_episode") {
      ++fault_episodes;
    }
    if (client == 0) {
      continue;  // server-side events (channel slots, batch fires)
    }
    if (check_faults) {
      const auto channel =
          static_cast<std::uint64_t>(line.number_or("channel", 0.0));
      const std::uint64_t key = client * 65536 + channel;
      if (event == "fault_hit") {
        ++fault_accounts[key].hits;
      } else if (event == "repair") {
        ++fault_accounts[key].repairs;
      } else if (event == "fault_degraded") {
        ++fault_accounts[key].degraded;
      }
    }
    auto& track = clients[client];
    if (event == "tune_in") {
      track.tuned = true;
      track.tune_time = t;
    } else if (event == "jitter") {
      ++track.jitter_events;
    } else if (event == "segment_download_start") {
      const double length = line.number_or("value", 0.0);
      track.downloads.push_back({t, length, video});
      if (check_realloc) {
        video_downloads[video].push_back({t, length, video});
      }
      if (length > 0.0 && (d1 == 0.0 || length < d1)) {
        d1 = length;
      }
    }
  }

  if (clients.empty()) {
    std::fprintf(stderr,
                 "trace_check: %s holds no client events (%zu lines)\n",
                 path.c_str(), lines.size());
    return 2;
  }

  std::uint64_t violations = 0;
  std::uint64_t jitter_total = 0;
  int fleet_peak_loaders = 0;
  double fleet_peak_units = 0.0;
  for (auto& [id, track] : clients) {
    jitter_total += track.jitter_events;
    if (track.jitter_events > 0) {
      ++violations;
      std::printf("VIOLATION client %llu: %llu jitter event(s)\n",
                  static_cast<unsigned long long>(id),
                  static_cast<unsigned long long>(track.jitter_events));
    }
    if (track.downloads.empty()) {
      continue;  // arrival-only client (plan_clients off or non-SB scheme)
    }

    // Invariant 1: concurrent downloads. Sweep start/end edges; a loader
    // finishing releases before the next admission. The JSONL carries ~10
    // significant digits, so a computed end (start + value) can land a hair
    // past the next download's printed start — edges within kTimeEps of each
    // other count as simultaneous, ends first.
    constexpr double kTimeEps = 1e-5;
    std::vector<std::pair<double, int>> edges;
    edges.reserve(track.downloads.size() * 2);
    double total_fetched = 0.0;
    for (const auto& d : track.downloads) {
      edges.emplace_back(d.start, +1);
      edges.emplace_back(d.start + d.length, -1);
      total_fetched += d.length;
    }
    std::sort(edges.begin(), edges.end(),
              [](const auto& a, const auto& b) {
                return a.first != b.first ? a.first < b.first
                                          : a.second < b.second;
              });
    int live = 0;
    int peak_loaders = 0;
    for (std::size_t i = 0; i < edges.size();) {
      std::size_t j = i;
      while (j < edges.size() &&
             edges[j].first - edges[i].first <= kTimeEps) {
        ++j;
      }
      for (std::size_t k = i; k < j; ++k) {  // group ends apply first
        live += edges[k].second == -1 ? -1 : 0;
      }
      for (std::size_t k = i; k < j; ++k) {
        live += edges[k].second == +1 ? +1 : 0;
      }
      peak_loaders = std::max(peak_loaders, live);
      i = j;
    }
    fleet_peak_loaders = std::max(fleet_peak_loaders, peak_loaders);
    if (peak_loaders > max_loaders) {
      ++violations;
      std::printf("VIOLATION client %llu: %d concurrent downloads (cap %lld)\n",
                  static_cast<unsigned long long>(id), peak_loaders,
                  static_cast<long long>(max_loaders));
    }

    // Invariant 3: buffer occupancy at event boundaries. fetched(t) is the
    // summed overlap of the download intervals with (-inf, t]; played(t)
    // advances at unit rate from tune_in until the fetched total is drained.
    if (!track.tuned || d1 <= 0.0) {
      continue;
    }
    double peak_units = 0.0;
    double min_units = 0.0;
    for (const auto& [t, delta] : edges) {
      (void)delta;
      double fetched = 0.0;
      for (const auto& d : track.downloads) {
        fetched += std::clamp(t - d.start, 0.0, d.length);
      }
      const double played =
          std::clamp(t - track.tune_time, 0.0, total_fetched);
      const double units = (fetched - played) / d1;
      peak_units = std::max(peak_units, units);
      min_units = std::min(min_units, units);
    }
    fleet_peak_units = std::max(fleet_peak_units, peak_units);
    // Tolerance for the float division chain; occupancy is integral in D1.
    if (min_units < -1e-6) {
      ++violations;
      std::printf("VIOLATION client %llu: buffer underrun of %.3f units\n",
                  static_cast<unsigned long long>(id), -min_units);
    }
    if (has_unit_cap && peak_units > static_cast<double>(max_units) + 1e-6) {
      ++violations;
      std::printf("VIOLATION client %llu: peak buffer %.3f units (cap %lld)\n",
                  static_cast<unsigned long long>(id), peak_units,
                  static_cast<long long>(max_units));
    }
    if (verbose) {
      std::printf("client %llu: %zu downloads, peak loaders %d, "
                  "peak buffer %.2f units\n",
                  static_cast<unsigned long long>(id),
                  track.downloads.size(), peak_loaders, peak_units);
    }
  }

  // Invariant 4 (--realloc): a demoted title's channels drain before the
  // bandwidth is retuned, so every download of that title either finishes
  // by the drain_complete instant or starts on the title's next plan after
  // it. A download spanning the handoff means a client's loader survived a
  // channel retune — exactly what the drain protocol forbids.
  std::uint64_t drain_handoffs = 0;
  if (check_realloc) {
    constexpr double kTimeEps = 1e-5;
    for (const auto& [video, handoffs] : drains) {
      drain_handoffs += handoffs.size();
      const auto it = video_downloads.find(video);
      if (it == video_downloads.end()) {
        continue;
      }
      for (const double handoff : handoffs) {
        for (const auto& d : it->second) {
          if (d.start < handoff - kTimeEps &&
              d.start + d.length > handoff + kTimeEps) {
            ++violations;
            std::printf(
                "VIOLATION video %llu: download [%.5f, %.5f] spans the "
                "drain handoff at %.5f\n",
                static_cast<unsigned long long>(video), d.start,
                d.start + d.length, handoff);
          }
        }
      }
    }
    std::printf("trace_check: drain contract checked over %llu handoff(s) "
                "on %zu video(s)\n",
                static_cast<unsigned long long>(drain_handoffs),
                drains.size());
  }

  // Invariant 5 (--faults): injected damage never becomes silent jitter.
  // Jitter events are already violations above; here every per-client
  // fault_hit must resolve to exactly one repair or fault_degraded on the
  // same (client, channel) — an unmatched hit is damage that vanished, an
  // unmatched repair/degradation is bookkeeping out of thin air.
  if (check_faults) {
    std::uint64_t hits = 0;
    std::uint64_t repairs = 0;
    std::uint64_t degraded = 0;
    for (const auto& [key, account] : fault_accounts) {
      hits += account.hits;
      repairs += account.repairs;
      degraded += account.degraded;
      if (account.hits != account.repairs + account.degraded) {
        ++violations;
        std::printf(
            "VIOLATION client %llu channel %llu: %llu fault hit(s) vs "
            "%llu repair(s) + %llu degraded\n",
            static_cast<unsigned long long>(key / 65536),
            static_cast<unsigned long long>(key % 65536),
            static_cast<unsigned long long>(account.hits),
            static_cast<unsigned long long>(account.repairs),
            static_cast<unsigned long long>(account.degraded));
      }
    }
    std::printf("trace_check: fault contract checked: %llu episode(s), "
                "%llu hit(s) = %llu repair(s) + %llu degraded\n",
                static_cast<unsigned long long>(fault_episodes),
                static_cast<unsigned long long>(hits),
                static_cast<unsigned long long>(repairs),
                static_cast<unsigned long long>(degraded));
  }

  std::printf("trace_check: %zu events, %zu clients; "
              "peak loaders %d, peak buffer %.2f units, "
              "%llu jitter event(s)\n",
              lines.size(), clients.size(), fleet_peak_loaders,
              fleet_peak_units,
              static_cast<unsigned long long>(jitter_total));
  if (verbose) {
    for (const auto& [kind, count] : kind_counts) {
      std::printf("  %-24s %llu\n", kind.c_str(),
                  static_cast<unsigned long long>(count));
    }
  }
  if (violations > 0) {
    std::printf("trace_check: %llu violation(s)\n",
                static_cast<unsigned long long>(violations));
    return 1;
  }
  std::puts("trace_check: all invariants hold");
  return 0;
}
