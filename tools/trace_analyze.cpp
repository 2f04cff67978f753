// trace_analyze: critical-path latency attribution and contract checks over
// a --spans-out JSONL capture.
//
// Reads the causal span tree (session → queue_wait / tune /
// segment_download / playback, with retransmit / disk_stall / epoch / drain
// / fault relatives) and answers *why* sessions waited, not just that they
// did:
//
//   1. per-session critical-path decomposition — walk the longest dependent
//      chain through each session's children and attribute every minute of
//      the session to the phase that owned it (a span's self-time is its
//      interval minus what its chosen children cover);
//   2. aggregate phase breakdown — total minutes, share, and p50/p95/p99 of
//      per-session phase time (obs::SketchCore, so tails carry the
//      sketch's relative-error guarantee);
//   3. top-k slowest sessions by reported wait, each with its dominant
//      wait phase;
//   4. --check: cross-checks the span-derived totals against a
//      --metrics-out JSON dump — session count must equal the
//      --sessions-metric counter, per-title critical-path wait sums must
//      match the --wait-family sketch sums within --rel-tol, and each
//      session's critical path must attribute >= 95% (--attribution-tol) of
//      its reported wait to enumerated phases;
//   5. the client, drain and fault contracts, each run whenever the capture
//      holds the spans it needs:
//      * loader cap — no session runs more than --max-loaders concurrent
//        segment_download children (the paper's two-loader client, Section
//        4); a session without any counts its playback as its one download;
//      * buffer — for sessions with a tune child, content fetched minus
//        content played from the tune end, in units of D1 (the shortest
//        download in the capture), never goes negative and, with
//        --max-units, never exceeds the cap (60*b*D1*(W-1) in units);
//      * drain — no broadcast-served playback (a session with a tune child
//        or an epoch parent) of a title spans one of that title's drain
//        span ends: a demoted title's channels drain before they retune;
//      * fault — for every (client, channel) with client != 0, the
//        fault_hit count equals repair plus fault_degraded: injected damage
//        is either healed or surfaced, never lost.
//      Jitter has no span; metrics_check gates sim_jitter_events_total.
//
//   trace_analyze SPANS.jsonl [--top N] [--check] [--metrics METRICS.json]
//                 [--sessions-metric sim.clients_served]
//                 [--wait-family sb.client.wait] [--rel-tol 1e-9]
//                 [--attribution-tol 0.05] [--max-loaders 2]
//                 [--max-units N]
//
// Exit status: 0 = analysis ok (and all checks pass), 1 = check or contract
// violation, 2 = usage/IO error.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/quantile_sketch.hpp"
#include "util/args.hpp"
#include "util/json.hpp"

namespace {

using vodbcast::util::json::Value;

struct SpanRec {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  double start = 0.0;
  double end = 0.0;
  std::string phase;
  std::int32_t channel = 0;
  std::uint64_t video = 0;
  std::uint64_t client = 0;
  double value = 0.0;
};

/// Phases that explain *waiting* (vs. consuming); the dominant phase of a
/// slow session is picked among these first.
bool is_wait_phase(const std::string& phase) {
  return phase == "queue_wait" || phase == "tune" || phase == "retransmit" ||
         phase == "disk_stall";
}

struct Analyzer {
  std::vector<SpanRec> spans;  // in file order (= start order, ties stable)
  std::unordered_map<std::uint64_t, std::size_t> index_of;
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> children;

  void build() {
    index_of.reserve(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
      index_of.emplace(spans[i].id, i);
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].parent != 0 && index_of.count(spans[i].parent) != 0) {
        children[spans[i].parent].push_back(i);
      }
    }
  }

  /// Attributes the interval [lo, hi] of span `idx` to phases along the
  /// critical path: at each instant the child reaching furthest owns the
  /// time (recursively); instants no child covers are the span's own
  /// self-time. Greedy furthest-reach is the longest dependent chain for
  /// interval DAGs like ours.
  void decompose(std::size_t idx, double lo, double hi,
                 std::map<std::string, double>& out) const {
    constexpr double kEps = 1e-9;
    const auto it = children.find(spans[idx].id);
    const std::vector<std::size_t> none;
    const auto& kids = it != children.end() ? it->second : none;
    double t = lo;
    // Each iteration either consumes a child or jumps to the next child
    // start; both strictly advance t, so 2*kids+2 bounds the loop.
    for (std::size_t guard = 0; t < hi - kEps && guard < 2 * kids.size() + 2;
         ++guard) {
      std::size_t best = spans.size();
      double best_end = t;
      double next_start = hi;
      for (const auto ci : kids) {
        const auto& c = spans[ci];
        if (c.start <= t + kEps && c.end > best_end) {
          best = ci;
          best_end = c.end;
        } else if (c.start > t + kEps && c.start < next_start &&
                   c.end > c.start) {
          next_start = c.start;
        }
      }
      if (best != spans.size()) {
        const double child_hi = std::min(best_end, hi);
        decompose(best, t, child_hi, out);
        t = child_hi;
      } else {
        out[spans[idx].phase] += next_start - t;
        t = next_start;
      }
    }
    if (t < hi) {  // guard bailout: remainder is self-time
      out[spans[idx].phase] += hi - t;
    }
  }
};

/// The client, drain and fault contracts (see the header). Prints one
/// VIOLATION line per breach and one summary line per contract that ran;
/// returns the number of violations.
std::uint64_t check_contracts(const Analyzer& an, std::int64_t max_loaders,
                              const std::optional<std::int64_t>& max_units) {
  // Edges within kTimeEps count as simultaneous: a download's end and the
  // next one's start are different slot products and can differ in the
  // last bits.
  constexpr double kTimeEps = 1e-5;
  struct Interval {
    double start;
    double end;
  };
  struct SessionRow {
    const SpanRec* session;
    const SpanRec* tune = nullptr;
    const SpanRec* playback = nullptr;
    bool broadcast = false;
    std::vector<Interval> downloads;
  };
  std::vector<SessionRow> rows;
  std::map<std::uint64_t, std::vector<double>> drain_ends;  // by title
  std::size_t handoffs = 0;
  // Per (client, channel): fault hits minus their repairs and degradations.
  std::map<std::pair<std::uint64_t, std::int32_t>, std::int64_t> unresolved;
  std::uint64_t episodes = 0;
  std::uint64_t hits = 0;
  std::uint64_t repairs = 0;
  std::uint64_t degraded = 0;
  double d1 = 0.0;
  for (const auto& span : an.spans) {
    if (span.phase == "drain") {
      drain_ends[span.video].push_back(span.end);
      ++handoffs;
    } else if (span.phase == "fault_episode") {
      ++episodes;
    } else if (span.client != 0 && span.phase == "fault_hit") {
      ++hits;
      ++unresolved[{span.client, span.channel}];
    } else if (span.client != 0 &&
               (span.phase == "repair" || span.phase == "fault_degraded")) {
      ++(span.phase == "repair" ? repairs : degraded);
      --unresolved[{span.client, span.channel}];
    }
    if (span.phase != "session") {
      continue;
    }
    const auto parent = an.index_of.find(span.parent);
    SessionRow row{.session = &span,
                   .broadcast = parent != an.index_of.end() &&
                                an.spans[parent->second].phase == "epoch",
                   .downloads = {}};
    if (const auto kids = an.children.find(span.id);
        kids != an.children.end()) {
      for (const auto ci : kids->second) {
        const auto& kid = an.spans[ci];
        if (kid.phase == "segment_download") {
          row.downloads.push_back({kid.start, kid.end});
        } else if (kid.phase == "tune") {
          row.tune = &kid;
          row.broadcast = true;
        } else if (kid.phase == "playback") {
          row.playback = &kid;
        }
      }
    }
    if (row.downloads.empty() && row.playback != nullptr) {
      row.downloads.push_back({row.playback->start, row.playback->end});
    }
    for (const auto& d : row.downloads) {
      const double length = d.end - d.start;
      if (length > 0.0 && (d1 == 0.0 || length < d1)) {
        d1 = length;
      }
    }
    rows.push_back(std::move(row));
  }

  std::uint64_t violations = 0;
  const auto violation = [&violations](const SpanRec& s) {
    ++violations;
    std::printf("VIOLATION session %llu (client %llu, video %llu): ",
                static_cast<unsigned long long>(s.id),
                static_cast<unsigned long long>(s.client),
                static_cast<unsigned long long>(s.video));
  };
  int peak_loaders = 0;
  double peak_units = 0.0;
  std::size_t buffer_sessions = 0;
  for (const auto& row : rows) {
    // Loader cap: sweep start/end edges, a finishing loader releasing
    // before the next admission at the same instant.
    std::vector<std::pair<double, int>> edges;
    for (const auto& d : row.downloads) {
      edges.emplace_back(d.start, +1);
      edges.emplace_back(d.end, -1);
    }
    std::sort(edges.begin(), edges.end());
    int live = 0;
    int loaders = 0;
    for (std::size_t i = 0; i < edges.size();) {
      std::size_t j = i;
      while (j < edges.size() && edges[j].first - edges[i].first <= kTimeEps) {
        live += edges[j].second == -1 ? -1 : 0;
        ++j;
      }
      for (std::size_t k = i; k < j; ++k) {
        live += edges[k].second == +1 ? +1 : 0;
      }
      loaders = std::max(loaders, live);
      i = j;
    }
    peak_loaders = std::max(peak_loaders, loaders);
    if (loaders > max_loaders) {
      violation(*row.session);
      std::printf("%d concurrent downloads (cap %lld)\n", loaders,
                  static_cast<long long>(max_loaders));
    }
    // Buffer: fetched minus played at every edge; playback runs at unit
    // rate from the tune end until the fetched total is drained.
    if (row.tune == nullptr || d1 <= 0.0) {
      continue;
    }
    ++buffer_sessions;
    double total = 0.0;
    for (const auto& d : row.downloads) {
      total += d.end - d.start;
    }
    double most = 0.0;
    double least = 0.0;
    for (const auto& [t, delta] : edges) {
      (void)delta;
      double fetched = 0.0;
      for (const auto& d : row.downloads) {
        fetched += std::clamp(t - d.start, 0.0, d.end - d.start);
      }
      const double units =
          (fetched - std::clamp(t - row.tune->end, 0.0, total)) / d1;
      most = std::max(most, units);
      least = std::min(least, units);
    }
    peak_units = std::max(peak_units, most);
    if (least < -1e-6) {  // occupancy is integral in D1; float noise only
      violation(*row.session);
      std::printf("buffer underrun of %.3f units\n", -least);
    }
    if (max_units.has_value() &&
        most > static_cast<double>(*max_units) + 1e-6) {
      violation(*row.session);
      std::printf("peak buffer %.3f units (cap %lld)\n", most,
                  static_cast<long long>(*max_units));
    }
  }
  std::printf("contracts: %zu session(s), peak loaders %d (cap %lld); "
              "buffer over %zu tuned session(s), peak %.2f units (cap %s)\n",
              rows.size(), peak_loaders, static_cast<long long>(max_loaders),
              buffer_sessions, peak_units,
              max_units.has_value() ? std::to_string(*max_units).c_str()
                                    : "none");

  if (!drain_ends.empty()) {
    for (const auto& row : rows) {
      const auto it = drain_ends.find(row.session->video);
      if (!row.broadcast || row.playback == nullptr ||
          it == drain_ends.end()) {
        continue;
      }
      for (const double handoff : it->second) {
        if (row.playback->start < handoff - kTimeEps &&
            row.playback->end > handoff + kTimeEps) {
          violation(*row.session);
          std::printf("playback [%.5f, %.5f] spans the drain handoff at "
                      "%.5f\n",
                      row.playback->start, row.playback->end, handoff);
        }
      }
    }
    std::printf("contracts: drain contract checked over %zu handoff(s) on "
                "%zu title(s)\n",
                handoffs, drain_ends.size());
  }

  if (episodes > 0 || !unresolved.empty()) {
    for (const auto& [key, balance] : unresolved) {
      if (balance != 0) {
        ++violations;
        std::printf("VIOLATION client %llu channel %d: fault hit(s) minus "
                    "repair(s) and degraded = %lld\n",
                    static_cast<unsigned long long>(key.first), key.second,
                    static_cast<long long>(balance));
      }
    }
    std::printf("contracts: fault contract checked: %llu episode(s), %llu "
                "hit(s) = %llu repair(s) + %llu degraded\n",
                static_cast<unsigned long long>(episodes),
                static_cast<unsigned long long>(hits),
                static_cast<unsigned long long>(repairs),
                static_cast<unsigned long long>(degraded));
  }
  return violations;
}

int usage() {
  std::fputs(
      "usage: trace_analyze SPANS.jsonl [--top N] [--check]\n"
      "                     [--metrics METRICS.json]\n"
      "                     [--sessions-metric NAME] [--wait-family NAME]\n"
      "                     [--rel-tol X] [--attribution-tol X]\n"
      "  --top N              slowest sessions to list (default 10)\n"
      "  --check              cross-check span totals against --metrics\n"
      "  --metrics FILE       --metrics-out JSON dump of the same run\n"
      "  --sessions-metric M  counter that must equal the session count\n"
      "                       (default sim.clients_served)\n"
      "  --wait-family F      per-title wait sketch family whose sums must\n"
      "                       match (default sb.client.wait)\n"
      "  --rel-tol X          relative tolerance for sum agreement\n"
      "                       (default 1e-9)\n"
      "  --attribution-tol X  max unexplained fraction of a session's\n"
      "                       reported wait (default 0.05)\n"
      "  --max-loaders N      concurrent-download cap per session\n"
      "                       (default 2)\n"
      "  --max-units N        peak buffer cap in units of D1 (default: only\n"
      "                       check the buffer never goes negative)\n",
      stderr);
  return 2;
}

int run(const vodbcast::util::ArgParser& args) {
  if (args.positional_count() != 1) {
    return usage();
  }
  if (const auto flag = args.unknown_flag(
          {"top", "check", "metrics", "sessions-metric", "wait-family",
           "rel-tol", "attribution-tol", "max-loaders", "max-units"})) {
    std::fprintf(stderr, "trace_analyze: unknown flag --%s\n", flag->c_str());
    return usage();
  }
  const auto top_k = static_cast<std::size_t>(args.get_uint("top", 10));
  const bool check = args.has("check");
  const double rel_tol = args.get_double("rel-tol", 1e-9);
  const double attribution_tol = args.get_double("attribution-tol", 0.05);
  const std::string sessions_metric =
      args.get_string("sessions-metric", "sim.clients_served");
  const std::string wait_family =
      args.get_string("wait-family", "sb.client.wait");
  const auto max_loaders = args.get_int("max-loaders", 2);
  const auto max_units =
      args.has("max-units")
          ? std::optional<std::int64_t>(args.get_int("max-units", 0))
          : std::nullopt;
  if (check && !args.has("metrics")) {
    std::fputs("trace_analyze: --check requires --metrics\n", stderr);
    return usage();
  }

  const auto read_file = [](const std::string& path,
                            std::string& out) -> bool {
    std::ifstream in(path);
    if (!in) {
      return false;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    out = buffer.str();
    return true;
  };

  const auto& path = args.positional(0);
  std::string text;
  if (!read_file(path, text)) {
    std::fprintf(stderr, "trace_analyze: cannot read %s\n", path.c_str());
    return 2;
  }

  Analyzer an;
  try {
    for (const auto& line : vodbcast::util::json::parse_jsonl(text)) {
      an.spans.push_back(SpanRec{
          .id = static_cast<std::uint64_t>(line.at("id").as_number()),
          .parent =
              static_cast<std::uint64_t>(line.number_or("parent", 0.0)),
          .start = line.at("start").as_number(),
          .end = line.at("end").as_number(),
          .phase = line.at("phase").as_string(),
          .channel = static_cast<std::int32_t>(line.number_or("channel", 0.0)),
          .video = static_cast<std::uint64_t>(line.number_or("video", 0.0)),
          .client =
              static_cast<std::uint64_t>(line.number_or("client", 0.0)),
          .value = line.number_or("value", 0.0),
      });
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "trace_analyze: %s: %s\n", path.c_str(), e.what());
    return 2;
  }
  an.build();

  struct SessionRow {
    std::size_t index;
    double wait_reported;
    double wait_attributed;
    std::map<std::string, double> phases;
  };
  std::vector<SessionRow> sessions;
  std::map<std::string, double> phase_total;
  std::map<std::string, vodbcast::obs::SketchCore> phase_sketch;
  std::map<std::uint64_t, double> title_wait_sum;
  double worst_unattributed = 0.0;
  std::size_t attribution_violations = 0;

  for (std::size_t i = 0; i < an.spans.size(); ++i) {
    if (an.spans[i].phase != "session") {
      continue;
    }
    SessionRow row{.index = i,
                   .wait_reported = an.spans[i].value,
                   .wait_attributed = 0.0,
                   .phases = {}};
    an.decompose(i, an.spans[i].start, an.spans[i].end, row.phases);
    for (const auto& [phase, minutes] : row.phases) {
      phase_total[phase] += minutes;
      phase_sketch[phase].observe(minutes);
      if (is_wait_phase(phase)) {
        row.wait_attributed += minutes;
      }
    }
    title_wait_sum[an.spans[i].video] += row.wait_attributed;
    // The acceptance bar: the enumerated phases must explain the reported
    // wait up to float noise / the allowed unexplained fraction.
    const double residual =
        std::abs(row.wait_attributed - row.wait_reported);
    const double allowed =
        std::max(1e-9, attribution_tol * std::abs(row.wait_reported));
    if (residual > allowed) {
      ++attribution_violations;
    }
    if (std::abs(row.wait_reported) > 0.0) {
      worst_unattributed =
          std::max(worst_unattributed, residual / row.wait_reported);
    }
    sessions.push_back(std::move(row));
  }

  if (sessions.empty()) {
    std::fprintf(stderr, "trace_analyze: %s holds no session spans"
                 " (%zu spans)\n",
                 path.c_str(), an.spans.size());
    return 2;
  }

  double grand_total = 0.0;
  for (const auto& [phase, minutes] : phase_total) {
    (void)phase;
    grand_total += minutes;
  }
  std::printf("trace_analyze: %zu spans, %zu sessions\n", an.spans.size(),
              sessions.size());
  std::printf("\nphase breakdown along session critical paths:\n");
  std::printf("  %-18s %12s %7s %8s %9s %9s %9s\n", "phase", "total_min",
              "share", "count", "p50", "p95", "p99");
  for (const auto& [phase, minutes] : phase_total) {
    const auto& sketch = phase_sketch.at(phase);
    std::printf("  %-18s %12.4f %6.1f%% %8llu %9.4f %9.4f %9.4f\n",
                phase.c_str(), minutes,
                grand_total > 0.0 ? 100.0 * minutes / grand_total : 0.0,
                static_cast<unsigned long long>(sketch.count()),
                sketch.quantile(0.50), sketch.quantile(0.95),
                sketch.quantile(0.99));
  }

  std::vector<std::size_t> order(sessions.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return sessions[a].wait_reported >
                            sessions[b].wait_reported;
                   });
  std::printf("\ntop %zu slowest sessions (by reported wait):\n",
              std::min(top_k, order.size()));
  for (std::size_t rank = 0; rank < std::min(top_k, order.size()); ++rank) {
    const auto& row = sessions[order[rank]];
    const auto& span = an.spans[row.index];
    // Dominant phase: largest wait-phase share; overall largest otherwise.
    std::string dominant = "-";
    double dominant_minutes = -1.0;
    for (const auto& [phase, minutes] : row.phases) {
      if (is_wait_phase(phase) && minutes > dominant_minutes) {
        dominant = phase;
        dominant_minutes = minutes;
      }
    }
    if (dominant_minutes <= 0.0) {
      for (const auto& [phase, minutes] : row.phases) {
        if (minutes > dominant_minutes) {
          dominant = phase;
          dominant_minutes = minutes;
        }
      }
    }
    std::printf("  client %-8llu video %-4llu wait %8.4f min  dominant %s\n",
                static_cast<unsigned long long>(span.client),
                static_cast<unsigned long long>(span.video),
                row.wait_reported, dominant.c_str());
  }
  std::printf("\nattribution: worst unexplained wait fraction %.3g"
              " (%zu session(s) beyond tolerance %.2g)\n",
              worst_unattributed, attribution_violations, attribution_tol);

  std::printf("\n");
  std::uint64_t violations = attribution_violations > 0 ? 1u : 0u;
  violations += check_contracts(an, max_loaders, max_units);
  if (check) {
    const auto metrics_path = *args.get("metrics");
    std::string metrics_text;
    if (!read_file(metrics_path, metrics_text)) {
      std::fprintf(stderr, "trace_analyze: cannot read %s\n",
                   metrics_path.c_str());
      return 2;
    }
    Value metrics;
    try {
      metrics = vodbcast::util::json::parse(metrics_text);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "trace_analyze: %s: %s\n", metrics_path.c_str(),
                   e.what());
      return 2;
    }

    // Check 1: session count == the served-clients counter.
    const Value* counters = metrics.find("counters");
    const Value* served = counters != nullptr
                              ? counters->find(sessions_metric)
                              : nullptr;
    if (served == nullptr) {
      std::printf("CHECK FAIL: metrics dump has no counter '%s'\n",
                  sessions_metric.c_str());
      ++violations;
    } else if (static_cast<double>(sessions.size()) != served->as_number()) {
      std::printf("CHECK FAIL: %zu session spans but %s = %.0f\n",
                  sessions.size(), sessions_metric.c_str(),
                  served->as_number());
      ++violations;
    } else {
      std::printf("check: session count matches %s = %zu\n",
                  sessions_metric.c_str(), sessions.size());
    }

    // Check 2: per-title critical-path wait sums vs. the sketch family.
    const Value* sketches = metrics.find("sketches");
    std::size_t series_checked = 0;
    if (sketches != nullptr && sketches->is_object()) {
      const std::string prefix = wait_family + "{title=";
      for (const auto& [key, series] : sketches->as_object()) {
        if (key.rfind(prefix, 0) != 0 || key.back() != '}') {
          continue;
        }
        const auto title = static_cast<std::uint64_t>(
            std::stoull(key.substr(prefix.size())));
        const double family_sum = series.number_or("sum", 0.0);
        const auto it = title_wait_sum.find(title);
        const double span_sum = it != title_wait_sum.end() ? it->second : 0.0;
        const double denom = std::max(std::abs(family_sum),
                                      std::abs(span_sum));
        if (denom > 0.0 && std::abs(family_sum - span_sum) > rel_tol * denom) {
          std::printf("CHECK FAIL: title %llu wait sum: spans %.12g vs"
                      " %s %.12g\n",
                      static_cast<unsigned long long>(title), span_sum,
                      wait_family.c_str(), family_sum);
          ++violations;
        }
        ++series_checked;
      }
    }
    if (series_checked == 0) {
      std::printf("CHECK FAIL: metrics dump has no '%s{title=...}' series\n",
                  wait_family.c_str());
      ++violations;
    } else {
      std::printf("check: per-title wait sums agree over %zu series"
                  " (rel tol %.2g)\n",
                  series_checked, rel_tol);
    }
    if (attribution_violations > 0) {
      std::printf("CHECK FAIL: %zu session(s) with unexplained wait beyond"
                  " tolerance\n",
                  attribution_violations);
    } else {
      std::printf("check: critical paths attribute every reported wait"
                  " (worst residual fraction %.3g)\n",
                  worst_unattributed);
    }
  }

  if (violations > 0) {
    std::printf("trace_analyze: FAILED\n");
    return 1;
  }
  std::printf("trace_analyze: ok\n");
  return 0;
}

}  // namespace

// A malformed flag throws from the parser or a typed read: a usage error.
int main(int argc, char** argv) {
  try {
    return run(vodbcast::util::ArgParser(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "trace_analyze: %s\n", e.what());
    return 2;
  }
}
