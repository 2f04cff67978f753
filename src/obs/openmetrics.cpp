// OpenMetrics text exposition for the registry — the machine-scrapable
// output format (`--metrics-format openmetrics`, linted by
// tools/metrics_check).
//
// Format notes (per the OpenMetrics 1.0 text format):
//   * metric names match [a-zA-Z_:][a-zA-Z0-9_:]* — our dotted names
//     sanitize '.' to '_', and # HELP preserves the original dotted name so
//     readers can map back to docs/OBSERVABILITY.md;
//   * counters expose one `<name>_total` sample under `# TYPE <name>
//     counter`;
//   * histograms expose cumulative `_bucket{le="..."}` series ending in
//     le="+Inf", plus `_sum` and `_count`;
//   * sketches expose as summaries: `{quantile="..."}` samples plus `_sum`
//     and `_count` — quantiles come from the sketch, so they carry its
//     relative-error guarantee instead of a histogram grid's clamping;
//   * label values escape backslash, double quote and newline;
//   * the dump ends with `# EOF`.
#include <cstdio>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace vodbcast::obs {

namespace {

/// Dotted metric name -> OpenMetrics name: '.' and any other invalid
/// character become '_'.
std::string sanitize_name(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (std::size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
    const bool digit = (c >= '0' && c <= '9');
    const bool ok = alpha || c == '_' || c == ':' || (digit && i > 0);
    out += ok ? c : '_';
  }
  return out;
}

std::string escape_label_value(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string format_value(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

/// Renders `{k="v",...}` including one optional extra label (le / quantile)
/// appended after the family labels. Returns "" when there are none.
std::string label_block(const Snapshot::Labels& labels,
                        const std::string& extra_key = {},
                        const std::string& extra_value = {}) {
  if (labels.empty() && extra_key.empty()) {
    return {};
  }
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) {
      out += ',';
    }
    first = false;
    out += sanitize_name(key) + "=\"" + escape_label_value(value) + '"';
  }
  if (!extra_key.empty()) {
    if (!first) {
      out += ',';
    }
    out += extra_key + "=\"" + escape_label_value(extra_value) + '"';
  }
  out += '}';
  return out;
}

/// Emits the # TYPE / # HELP header once per metric family name; relies on
/// same-name series arriving consecutively (snapshot order guarantees it).
void header(std::ostringstream& os, std::string& last_name,
            const std::string& om_name, const std::string& dotted,
            const char* type, const std::string& what) {
  if (om_name == last_name) {
    return;
  }
  last_name = om_name;
  os << "# TYPE " << om_name << ' ' << type << '\n';
  os << "# HELP " << om_name << ' ' << what << " (source metric: " << dotted
     << ")\n";
}

}  // namespace

std::string Registry::to_openmetrics() const {
  const Snapshot snap = snapshot();
  std::ostringstream os;
  std::string last_name;

  for (const auto& c : snap.counters) {
    const std::string om = sanitize_name(c.name);
    header(os, last_name, om, c.name, "counter",
           c.labels.empty() ? "monotonic event count"
                            : "monotonic event count, labeled");
    os << om << "_total" << label_block(c.labels) << ' ' << c.value << '\n';
  }
  for (const auto& g : snap.gauges) {
    const std::string om = sanitize_name(g.name);
    header(os, last_name, om, g.name, "gauge",
           g.labels.empty() ? "last-written scalar"
                            : "last-written scalar, labeled");
    os << om << label_block(g.labels) << ' ' << format_value(g.value) << '\n';
  }
  for (const auto& h : snap.histograms) {
    const std::string om = sanitize_name(h.name);
    header(os, last_name, om, h.name, "histogram", "fixed-bin histogram");
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      cum += h.buckets[i];
      const std::string le =
          i < h.bounds.size() ? format_value(h.bounds[i]) : "+Inf";
      os << om << "_bucket" << label_block(h.labels, "le", le) << ' ' << cum
         << '\n';
    }
    os << om << "_sum" << label_block(h.labels) << ' ' << format_value(h.sum)
       << '\n';
    os << om << "_count" << label_block(h.labels) << ' ' << h.count << '\n';
  }
  for (const auto& s : snap.sketches) {
    const std::string om = sanitize_name(s.name);
    header(os, last_name, om, s.name, "summary",
           "quantile sketch (relative error <= " +
               format_value(s.relative_accuracy) + ")");
    for (const auto& [q, v] :
         {std::pair<const char*, double>{"0.5", s.p50},
          {"0.95", s.p95},
          {"0.99", s.p99},
          {"0.999", s.p999}}) {
      os << om << label_block(s.labels, "quantile", q) << ' '
         << format_value(v) << '\n';
    }
    os << om << "_sum" << label_block(s.labels) << ' ' << format_value(s.sum)
       << '\n';
    os << om << "_count" << label_block(s.labels) << ' ' << s.count << '\n';
  }
  os << "# EOF\n";
  return os.str();
}

}  // namespace vodbcast::obs
