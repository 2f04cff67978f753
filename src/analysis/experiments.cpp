#include "analysis/experiments.hpp"

#include <algorithm>
#include <span>
#include <sstream>

#include "schemes/registry.hpp"
#include "series/broadcast_series.hpp"
#include "util/contracts.hpp"
#include "util/text_table.hpp"

namespace vodbcast::analysis {

schemes::DesignInput paper_design_input(double bandwidth_mbps) {
  return schemes::DesignInput{
      .server_bandwidth = core::MbitPerSec{bandwidth_mbps},
      .num_videos = 10,
      .video = core::VideoParams{core::Minutes{120.0},
                                 core::MbitPerSec{1.5}},
  };
}

std::vector<double> paper_bandwidth_axis(double step) {
  return bandwidth_range(100.0, 600.0, step);
}

std::string table1_performance(double bandwidth_mbps) {
  const auto set = schemes::paper_figure_set();
  util::TextTable table({"scheme", "I/O bandwidth (Mb/s)",
                         "access latency (min)", "buffer space (Mbit)",
                         "buffer space (MB)"});
  const auto input = paper_design_input(bandwidth_mbps);
  for (const auto& scheme : set) {
    const auto evaluation = scheme->evaluate(input);
    if (!evaluation.has_value()) {
      table.add_row({scheme->name(), "-", "-", "-", "-"});
      continue;
    }
    const auto& m = evaluation->metrics;
    table.add_row({scheme->name(),
                   util::TextTable::num(m.client_disk_bandwidth.v, 2),
                   util::TextTable::num(m.access_latency.v, 3),
                   util::TextTable::num(m.client_buffer.v, 1),
                   util::TextTable::num(m.client_buffer.mbytes(), 1)});
  }
  std::ostringstream out;
  out << "Table 1: performance computation at B = " << bandwidth_mbps
      << " Mb/s (M=10, D=120 min, b=1.5 Mb/s)\n"
      << table.render();
  return out.str();
}

std::string table2_parameters(double bandwidth_mbps) {
  const auto set = schemes::paper_figure_set();
  util::TextTable table({"scheme", "K", "P", "alpha", "W"});
  const auto input = paper_design_input(bandwidth_mbps);
  for (const auto& scheme : set) {
    const auto evaluation = scheme->evaluate(input);
    if (!evaluation.has_value()) {
      table.add_row({scheme->name(), "-", "-", "-", "-"});
      continue;
    }
    const auto& d = evaluation->design;
    table.add_row(
        {scheme->name(), util::TextTable::num(static_cast<long long>(d.segments)),
         util::TextTable::num(static_cast<long long>(d.replicas)),
         d.alpha > 0.0 ? util::TextTable::num(d.alpha, 4) : "-",
         d.width == 0 ? "-"
         : d.width == series::kUncapped
             ? "inf"
             : util::TextTable::num(static_cast<long long>(d.width))});
  }
  std::ostringstream out;
  out << "Table 2: design parameter determination at B = " << bandwidth_mbps
      << " Mb/s\n"
      << table.render();
  return out.str();
}

namespace {

std::vector<SchemeSweep> paper_sweep(util::TaskPool* pool) {
  return sweep_bandwidth(schemes::paper_figure_set(), paper_design_input(),
                         paper_bandwidth_axis(), pool);
}

}  // namespace

FigureReport figure5_parameters(util::TaskPool* pool) {
  return render_parameter_figure(paper_sweep(pool));
}

FigureReport figure6_disk_bandwidth(util::TaskPool* pool) {
  return render_metric_figure(
      paper_sweep(pool), disk_bandwidth_mbyte_per_sec(),
      "Figure 6: disk bandwidth requirement (MBytes/sec)",
      "client disk bandwidth (MB/s)", true);
}

FigureReport figure7_access_latency(util::TaskPool* pool) {
  return render_metric_figure(paper_sweep(pool), access_latency_minutes(),
                              "Figure 7: access latency (minutes)",
                              "access latency (min)", true);
}

FigureReport figure8_storage(util::TaskPool* pool) {
  return render_metric_figure(paper_sweep(pool), storage_mbytes(),
                              "Figure 8: storage requirement (MBytes)",
                              "client disk space (MB)", true);
}

std::uint64_t transition_bound_units(const series::SegmentLayout& layout) {
  const auto& groups = layout.groups();
  std::uint64_t bound = 0;
  for (std::size_t g = 1; g < groups.size(); ++g) {
    bound = std::max(bound,
                     series::worst_case_buffer_units(groups[g - 1], groups[g]));
  }
  return bound;
}

TransitionLocalWorst transition_local_worst(
    const series::SegmentLayout& layout, std::size_t group_index,
    int playback_parity) {
  const auto& groups = layout.groups();
  VB_EXPECTS(group_index + 1 < groups.size());
  VB_EXPECTS(playback_parity >= -1 && playback_parity <= 1);
  const auto& from = groups[group_index];
  const auto& to = groups[group_index + 1];
  const std::uint64_t span_units = from.total_units() + to.total_units();
  const std::uint64_t from_offset =
      layout.playback_offset_units(from.first_segment);

  // Behaviour repeats with the lcm of the two groups' sizes times two (the
  // parities of t0); a generous bound is from.size * to.size * 2.
  const std::uint64_t phases =
      std::min<std::uint64_t>(2 * from.size * to.size * 4, 1 << 14);

  TransitionLocalWorst result;
  for (std::uint64_t t0 = 0; t0 < phases; ++t0) {
    if (playback_parity >= 0 &&
        (t0 + from_offset) % 2 != static_cast<std::uint64_t>(playback_parity)) {
      continue;
    }
    // Only the two groups' downloads (the schedule lists segments in
    // order) fill the buffer, drained by the playback of exactly their
    // units.
    const auto schedule = client::jit_schedule(layout, 1, 0, t0);
    const std::span<const client::SegmentDownload> downloads =
        std::span(schedule).subspan(
            static_cast<std::size_t>(from.first_segment - 1),
            static_cast<std::size_t>(from.length + to.length));
    const std::uint64_t play_start = t0 + from_offset;
    const client::PlaybackInterval playback[] = {
        {play_start, play_start + span_units}};
    const std::int64_t peak =
        client::build_trace(downloads, playback).max_level();
    if (peak > result.peak_units) {
      result.peak_units = peak;
      result.worst_phase = t0;
    }
  }
  return result;
}

TransitionExperiment transition_experiment(int segments, std::uint64_t width) {
  VB_EXPECTS(segments >= 1);
  const series::SkyscraperSeries law;
  series::SegmentLayout layout(
      law, segments, width,
      core::VideoParams{core::Minutes{120.0}, core::MbitPerSec{1.5}});

  const client::WorstCase worst = client::worst_case_over_phases(layout);
  client::ReceptionPlan plan =
      client::plan_reception(layout, worst.worst_phase);

  std::ostringstream title;
  title << "skyscraper prefix K=" << segments;
  if (width != series::kUncapped) {
    title << " W=" << width;
  }
  return TransitionExperiment{
      .title = title.str(),
      .layout = layout,
      .worst = worst,
      .worst_plan = std::move(plan),
      .paper_bound_units = transition_bound_units(layout),
  };
}

std::string describe_plan(const series::SegmentLayout& layout,
                          const client::ReceptionPlan& plan) {
  std::ostringstream out;
  out << "playback start t0 = " << plan.playback_start
      << " (units of D1 = " << layout.unit_duration().v << " min)\n";
  util::TextTable table({"segment", "size", "loader", "download", "deadline",
                         "on time"});
  for (const auto& d : plan.downloads) {
    std::ostringstream window;
    window << '[' << d.start << ", " << d.end() << ')';
    table.add_row({util::TextTable::num(static_cast<long long>(d.segment)),
                   util::TextTable::num(static_cast<long long>(d.length)),
                   d.loader == client::LoaderId::kOdd ? "odd" : "even",
                   window.str(),
                   util::TextTable::num(static_cast<long long>(d.deadline)),
                   d.meets_deadline() ? "yes" : "LATE"});
  }
  out << table.render();
  out << "jitter-free: " << (plan.jitter_free ? "yes" : "NO")
      << "; peak tuners: " << plan.max_concurrent_downloads
      << "; peak buffer: " << plan.max_buffer_units << " units ("
      << core::to_string(plan.max_buffer(layout)) << ")\n";
  out << plan.trace.render();
  return out.str();
}

}  // namespace vodbcast::analysis
