#include "obs/bench_result.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <sstream>
#include <utility>

#include "util/contracts.hpp"
#include "util/math.hpp"
#include "util/text_table.hpp"

namespace vodbcast::obs {

using util::json::number;

namespace {

void emit_stats(std::ostringstream& os, const char* key,
                const TimingStats& stats) {
  os << '"' << key << "\":{\"samples\":" << stats.samples
     << ",\"min\":" << number(stats.min) << ",\"max\":" << number(stats.max)
     << ",\"mean\":" << number(stats.mean) << ",\"p50\":" << number(stats.p50)
     << ",\"p95\":" << number(stats.p95) << ",\"p99\":" << number(stats.p99)
     << '}';
}

TimingStats parse_stats(const util::json::Value& v) {
  TimingStats stats;
  stats.samples = static_cast<std::uint64_t>(v.number_or("samples", 0.0));
  stats.min = v.number_or("min", 0.0);
  stats.max = v.number_or("max", 0.0);
  stats.mean = v.number_or("mean", 0.0);
  stats.p50 = v.number_or("p50", 0.0);
  stats.p95 = v.number_or("p95", 0.0);
  stats.p99 = v.number_or("p99", 0.0);
  return stats;
}

}  // namespace

TimingStats TimingStats::from_samples(std::vector<double> values) {
  TimingStats stats;
  if (values.empty()) {
    return stats;
  }
  std::sort(values.begin(), values.end());
  stats.samples = values.size();
  stats.min = values.front();
  stats.max = values.back();
  double sum = 0.0;
  for (const double v : values) {
    sum += v;
  }
  stats.mean = sum / static_cast<double>(values.size());
  stats.p50 = util::interpolated_quantile(values, 0.50);
  stats.p95 = util::interpolated_quantile(values, 0.95);
  stats.p99 = util::interpolated_quantile(values, 0.99);
  return stats;
}

std::string BenchRunResult::to_json() const {
  std::ostringstream os;
  os << "{\"schema\":\"" << kBenchSchemaV1 << '"'
     << ",\"bench\":" << util::json::quote(bench)
     << ",\"timestamp\":" << util::json::quote(timestamp)
     << ",\"git_sha\":" << util::json::quote(git_sha)
     << ",\"build\":{\"type\":" << util::json::quote(build_type)
     << ",\"compiler\":" << util::json::quote(compiler)
     << ",\"flags\":" << util::json::quote(build_flags)
     << ",\"sanitize\":" << (sanitize ? "true" : "false") << '}'
     << ",\"threads\":" << threads
     << ",\"host_threads\":" << host_threads
     << ",\"wall_ms\":" << number(wall_ms) << ",\"cases\":[";
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto& c = cases[i];
    os << (i ? "," : "") << "{\"name\":" << util::json::quote(c.name)
       << ",\"reps\":" << c.reps << ",\"warmup\":" << c.warmup << ',';
    emit_stats(os, "wall_ns", c.wall_ns);
    os << ',';
    emit_stats(os, "cpu_ns", c.cpu_ns);
    os << '}';
  }
  os << "],\"trace\":{\"recorded\":" << trace_recorded
     << ",\"dropped\":" << trace_dropped
     << ",\"capacity\":" << trace_capacity << '}'
     << ",\"metrics\":"
     << (metrics.is_object() ? util::json::dump(metrics) : "{}") << "}\n";
  return os.str();
}

BenchRunResult parse_bench_result(const std::string& text) {
  const auto doc = util::json::parse(text);
  VB_EXPECTS_MSG(doc.is_object(), "bench result: not a JSON object");
  VB_EXPECTS_MSG(doc.string_or("schema", "") == kBenchSchemaV1,
                 "bench result: unknown schema '" +
                     doc.string_or("schema", "<missing>") + "'");
  BenchRunResult result;
  result.bench = doc.at("bench").as_string();
  result.timestamp = doc.string_or("timestamp", "");
  result.git_sha = doc.string_or("git_sha", "unknown");
  if (const auto* build = doc.find("build")) {
    result.build_type = build->string_or("type", "");
    result.compiler = build->string_or("compiler", "");
    result.build_flags = build->string_or("flags", "");
    const auto* sanitize = build->find("sanitize");
    result.sanitize = sanitize != nullptr && sanitize->is_bool() &&
                      sanitize->as_bool();
  }
  result.threads = static_cast<int>(doc.number_or("threads", 1.0));
  result.host_threads = static_cast<int>(doc.number_or("host_threads", 0.0));
  result.wall_ms = doc.number_or("wall_ms", 0.0);
  if (const auto* cases = doc.find("cases")) {
    for (const auto& entry : cases->as_array()) {
      BenchCaseResult c;
      c.name = entry.at("name").as_string();
      c.reps = static_cast<int>(entry.number_or("reps", 0.0));
      c.warmup = static_cast<int>(entry.number_or("warmup", 0.0));
      c.wall_ns = parse_stats(entry.at("wall_ns"));
      c.cpu_ns = parse_stats(entry.at("cpu_ns"));
      result.cases.push_back(std::move(c));
    }
  }
  if (const auto* trace = doc.find("trace")) {
    result.trace_recorded =
        static_cast<std::uint64_t>(trace->number_or("recorded", 0.0));
    result.trace_dropped =
        static_cast<std::uint64_t>(trace->number_or("dropped", 0.0));
    result.trace_capacity =
        static_cast<std::uint64_t>(trace->number_or("capacity", 0.0));
  }
  if (const auto* metrics = doc.find("metrics")) {
    result.metrics = *metrics;
  }
  return result;
}

namespace {

/// Counter drift between two metrics snapshots — non-gating, but a changed
/// `sim.clients_served` means the runs are not comparable and the note says
/// so explicitly.
void note_counter_drift(const std::string& bench,
                        const util::json::Value& base,
                        const util::json::Value& cand,
                        std::vector<std::string>& notes) {
  const auto* base_counters = base.find("counters");
  const auto* cand_counters = cand.find("counters");
  if (base_counters == nullptr || cand_counters == nullptr ||
      !base_counters->is_object() || !cand_counters->is_object()) {
    return;
  }
  for (const auto& [name, value] : base_counters->as_object()) {
    const auto* other = cand_counters->find(name);
    if (other == nullptr) {
      notes.push_back(bench + ": counter '" + name +
                      "' missing from candidate");
      continue;
    }
    if (value.is_number() && other->is_number() &&
        value.as_number() != other->as_number()) {
      notes.push_back(bench + ": counter '" + name + "' changed " +
                      number(value.as_number()) + " -> " +
                      number(other->as_number()));
    }
  }
  for (const auto& [name, value] : cand_counters->as_object()) {
    (void)value;
    if (base_counters->find(name) == nullptr) {
      notes.push_back(bench + ": counter '" + name + "' new in candidate");
    }
  }
}

/// Median and IQR of unsorted values; {0, 0} when empty.
std::pair<double, double> median_and_iqr(std::vector<double> values) {
  if (values.empty()) {
    return {0.0, 0.0};
  }
  std::sort(values.begin(), values.end());
  return {util::interpolated_quantile(values, 0.5),
          util::interpolated_quantile(values, 0.75) -
              util::interpolated_quantile(values, 0.25)};
}

const char* verdict_name(CaseDelta::Verdict verdict) {
  switch (verdict) {
    case CaseDelta::Verdict::kUnchanged: return "ok";
    case CaseDelta::Verdict::kImproved: return "IMPROVED";
    case CaseDelta::Verdict::kRegressed: return "REGRESSED";
    case CaseDelta::Verdict::kOnlyBase: return "only-baseline";
    case CaseDelta::Verdict::kOnlyCand: return "only-candidate";
  }
  return "";
}

}  // namespace

DiffReport diff_bench_results(const std::vector<BenchRunResult>& baseline,
                              const std::vector<BenchRunResult>& candidate,
                              const DiffOptions& options) {
  VB_EXPECTS(options.noise_threshold >= 0.0);
  DiffReport report;

  std::map<std::string, const BenchRunResult*> base_by_name;
  std::map<std::string, const BenchRunResult*> cand_by_name;
  for (const auto& r : baseline) {
    base_by_name[r.bench] = &r;
  }
  for (const auto& r : candidate) {
    cand_by_name[r.bench] = &r;
  }

  for (const auto& [bench, base] : base_by_name) {
    const auto it = cand_by_name.find(bench);
    if (it == cand_by_name.end()) {
      report.notes.push_back(bench + ": missing from candidate");
      continue;
    }
    const BenchRunResult* cand = it->second;

    std::map<std::string, const BenchCaseResult*> cand_cases;
    for (const auto& c : cand->cases) {
      cand_cases[c.name] = &c;
    }
    for (const auto& c : base->cases) {
      CaseDelta delta;
      delta.bench = bench;
      delta.name = c.name;
      delta.base_p50_ns = c.wall_ns.p50;
      const auto cit = cand_cases.find(c.name);
      if (cit == cand_cases.end()) {
        delta.verdict = CaseDelta::Verdict::kOnlyBase;
        report.deltas.push_back(delta);
        continue;
      }
      delta.cand_p50_ns = cit->second->wall_ns.p50;
      cand_cases.erase(cit);
      if (delta.base_p50_ns <= 0.0) {
        delta.verdict = CaseDelta::Verdict::kUnchanged;
        report.deltas.push_back(delta);
        continue;
      }
      delta.ratio = delta.cand_p50_ns / delta.base_p50_ns;
      const bool comparable = delta.base_p50_ns >= options.min_time_ns;
      if (comparable && delta.ratio > 1.0 + options.noise_threshold) {
        delta.verdict = CaseDelta::Verdict::kRegressed;
        ++report.regressions;
      } else if (comparable &&
                 delta.ratio < 1.0 - options.noise_threshold) {
        delta.verdict = CaseDelta::Verdict::kImproved;
        ++report.improvements;
      } else {
        delta.verdict = CaseDelta::Verdict::kUnchanged;
      }
      report.deltas.push_back(delta);
    }
    for (const auto& [name, c] : cand_cases) {
      CaseDelta delta;
      delta.bench = bench;
      delta.name = name;
      delta.cand_p50_ns = c->wall_ns.p50;
      delta.verdict = CaseDelta::Verdict::kOnlyCand;
      report.deltas.push_back(delta);
    }

    note_counter_drift(bench, base->metrics, cand->metrics, report.notes);
    if (base->trace_dropped == 0 && cand->trace_dropped > 0) {
      report.notes.push_back(
          bench + ": candidate trace dropped " +
          std::to_string(cand->trace_dropped) +
          " events (baseline dropped none) — consider a larger ring");
    }
  }
  for (const auto& [bench, cand] : cand_by_name) {
    (void)cand;
    if (base_by_name.find(bench) == base_by_name.end()) {
      report.notes.push_back(bench + ": new in candidate (no baseline)");
    }
  }
  return report;
}

std::string DiffReport::render() const {
  std::ostringstream os;
  util::TextTable table(
      {"bench", "case", "base p50 (ns)", "cand p50 (ns)", "delta", "verdict"},
      {util::Align::kLeft, util::Align::kLeft, util::Align::kRight,
       util::Align::kRight, util::Align::kRight, util::Align::kLeft});
  for (const auto& d : deltas) {
    std::string delta_cell = "-";
    if (d.ratio > 0.0) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%+.1f%%", (d.ratio - 1.0) * 100.0);
      delta_cell = buf;
    }
    table.add_row({d.bench, d.name,
                   d.base_p50_ns > 0.0 ? util::TextTable::num(d.base_p50_ns, 0)
                                       : "-",
                   d.cand_p50_ns > 0.0 ? util::TextTable::num(d.cand_p50_ns, 0)
                                       : "-",
                   delta_cell, verdict_name(d.verdict)});
  }
  os << table.render();
  if (!notes.empty()) {
    os << "\nnotes:\n";
    for (const auto& note : notes) {
      os << "  - " << note << '\n';
    }
  }
  os << '\n' << regressions << " regression(s), " << improvements
     << " improvement(s) across " << deltas.size() << " case(s)\n";
  return os.str();
}

PairedDiffReport diff_bench_pairs(
    const std::vector<std::vector<BenchRunResult>>& runs,
    const DiffOptions& options) {
  VB_EXPECTS_MSG(!runs.empty() && runs.size() % 2 == 0,
                 "paired bench results come as baseline, candidate pairs");
  PairedDiffReport report;
  report.pairs = runs.size() / 2;
  // (bench, case) -> each pair's baseline and candidate wall p50.
  struct PerPair {
    std::vector<std::optional<double>> base;
    std::vector<std::optional<double>> cand;
  };
  std::map<std::pair<std::string, std::string>, PerPair> cases;
  for (std::size_t r = 0; r < runs.size(); ++r) {
    for (const auto& run : runs[r]) {
      for (const auto& c : run.cases) {
        auto& per_pair = cases[{run.bench, c.name}];
        per_pair.base.resize(report.pairs);
        per_pair.cand.resize(report.pairs);
        (r % 2 == 0 ? per_pair.base : per_pair.cand)[r / 2] = c.wall_ns.p50;
      }
    }
  }

  for (const auto& [key, per_pair] : cases) {
    PairedCaseDelta delta;
    delta.bench = key.first;
    delta.name = key.second;
    std::vector<double> base;
    std::vector<double> cand;
    std::vector<double> ratios;
    bool any_base = false;
    bool any_cand = false;
    for (std::size_t k = 0; k < report.pairs; ++k) {
      any_base = any_base || per_pair.base[k].has_value();
      any_cand = any_cand || per_pair.cand[k].has_value();
      if (!per_pair.base[k] || !per_pair.cand[k] || *per_pair.base[k] <= 0.0) {
        continue;
      }
      const double b = *per_pair.base[k];
      const double c = *per_pair.cand[k];
      base.push_back(b);
      cand.push_back(c);
      ratios.push_back(c / b);
      delta.wins += c < b ? 1 : 0;
      delta.losses += c > b ? 1 : 0;
    }
    delta.pairs = base.size();
    if (!any_cand || !any_base) {
      delta.verdict = any_cand ? CaseDelta::Verdict::kOnlyCand
                               : CaseDelta::Verdict::kOnlyBase;
      report.deltas.push_back(delta);
      continue;
    }
    if (delta.pairs < report.pairs) {
      report.notes.push_back(delta.bench + "/" + delta.name + ": compared in " +
                             std::to_string(delta.pairs) + " of " +
                             std::to_string(report.pairs) + " pairs");
    }
    std::tie(delta.base_median_ns, delta.base_iqr_ns) = median_and_iqr(base);
    delta.cand_median_ns = median_and_iqr(cand).first;
    delta.ratio_median = median_and_iqr(ratios).first;
    // Decisive: the candidate loses (or wins) at least 80% of the pairs.
    const auto decisive = [&delta](std::size_t count) {
      return delta.pairs > 0 && 5 * count >= 4 * delta.pairs;
    };
    const bool comparable = delta.base_median_ns >= options.min_time_ns;
    const double gap = delta.cand_median_ns - delta.base_median_ns;
    if (comparable && decisive(delta.losses) && gap > delta.base_iqr_ns) {
      delta.verdict = CaseDelta::Verdict::kRegressed;
      ++report.regressions;
    } else if (comparable && decisive(delta.wins) &&
               -gap > delta.base_iqr_ns) {
      delta.verdict = CaseDelta::Verdict::kImproved;
      ++report.improvements;
    }
    report.deltas.push_back(delta);
  }
  return report;
}

std::string PairedDiffReport::render() const {
  std::ostringstream os;
  util::TextTable table({"bench", "case", "base p50 (ns)", "cand p50 (ns)",
                         "ratio", "wins", "base IQR (ns)", "verdict"},
                        {util::Align::kLeft, util::Align::kLeft,
                         util::Align::kRight, util::Align::kRight,
                         util::Align::kRight, util::Align::kRight,
                         util::Align::kRight, util::Align::kLeft});
  for (const auto& d : deltas) {
    const bool compared = d.pairs > 0;
    table.add_row(
        {d.bench, d.name,
         compared ? util::TextTable::num(d.base_median_ns, 0) : "-",
         compared ? util::TextTable::num(d.cand_median_ns, 0) : "-",
         compared ? util::TextTable::num(d.ratio_median, 3) : "-",
         std::to_string(d.wins) + "/" + std::to_string(d.pairs),
         compared ? util::TextTable::num(d.base_iqr_ns, 0) : "-",
         verdict_name(d.verdict)});
  }
  os << table.render();
  if (!notes.empty()) {
    os << "\nnotes:\n";
    for (const auto& note : notes) {
      os << "  - " << note << '\n';
    }
  }
  os << '\n' << pairs << " pair(s): " << regressions << " regression(s), "
     << improvements << " improvement(s) across " << deltas.size()
     << " case(s)\n";
  return os.str();
}

}  // namespace vodbcast::obs
