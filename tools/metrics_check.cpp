// metrics_check: lint an OpenMetrics text exposition (the format
// `vodbcast simulate --metrics-format openmetrics` and
// `Registry::to_openmetrics()` emit) and optionally assert cross-metric
// invariants over it.
//
//   metrics_check METRICS.txt [ASSERT...] [--verbose]
//
// Lint rules (all must hold for exit 0):
//   1. every metric and label name matches the OpenMetrics charset
//      ([a-zA-Z_:][a-zA-Z0-9_:]* / [a-zA-Z_][a-zA-Z0-9_]*);
//   2. every sample belongs to a `# TYPE` family declared above it, with a
//      suffix legal for that type (counter: `_total`; histogram: `_bucket`,
//      `_sum`, `_count`; summary: bare-with-quantile, `_sum`, `_count`);
//   3. no duplicate series (same sample name + identical label set);
//   4. histogram buckets are cumulative: non-decreasing in `le` order,
//      terminated by `le="+Inf"`, and the +Inf bucket equals `_count`;
//   5. summary quantile estimates are non-decreasing in the quantile;
//   6. the dump terminates with `# EOF`.
//
// Each ASSERT positional is one invariant in a tiny expression language:
//
//   sum(sb_client_wait_count{title=*}) == sim_clients_served_total
//   net_packets_lost_total{channel=0} <= net_packets_sent_total{channel=0}
//   sum(ctrl_title_promotions_total{title=*}) >= 1
//   sim_plan_cache_hits_total + sim_plan_cache_misses_total == sim_clients_served_total
//
//   expr := side cmp side
//   side := term ( + term )*      (whitespace-separated, so quote the expr)
//   term := number | selector | sum(selector)
//   cmp  := == | != | <= | >= | < | >
//   selector := name or name{key=value,...}; value `*` matches any, so
//   sum() over a `*` matcher folds a whole label dimension. A bare
//   selector term must match exactly one series.
//
// Equality compares with relative tolerance 1e-9 (values round-trip
// through %.10g). Exit status: 0 = clean, 1 = lint/assert violation,
// 2 = usage or IO error.
#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <exception>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "util/args.hpp"

namespace {

struct Series {
  std::string name;                                         // sample name
  std::vector<std::pair<std::string, std::string>> labels;  // emission order
  double value = 0.0;
  std::size_t line = 0;
};

struct Family {
  std::string type;  // counter | gauge | histogram | summary | ...
  std::size_t line = 0;
};

struct ParsedFile {
  std::map<std::string, Family> families;
  std::vector<Series> series;
  bool saw_eof = false;
};

int g_failures = 0;

void fail(std::size_t line, const std::string& message) {
  if (line > 0) {
    std::fprintf(stderr, "metrics_check: line %zu: %s\n", line,
                 message.c_str());
  } else {
    std::fprintf(stderr, "metrics_check: %s\n", message.c_str());
  }
  ++g_failures;
}

bool valid_metric_name(const std::string& name) {
  if (name.empty()) {
    return false;
  }
  for (std::size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    const bool alpha = std::isalpha(static_cast<unsigned char>(c)) != 0 ||
                       c == '_' || c == ':';
    const bool digit = std::isdigit(static_cast<unsigned char>(c)) != 0;
    if (!(alpha || (i > 0 && digit))) {
      return false;
    }
  }
  return true;
}

bool valid_label_name(const std::string& name) {
  if (name.empty() || name.rfind("__", 0) == 0) {
    return false;
  }
  for (std::size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    const bool alpha =
        std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
    const bool digit = std::isdigit(static_cast<unsigned char>(c)) != 0;
    if (!(alpha || (i > 0 && digit))) {
      return false;
    }
  }
  return true;
}

bool parse_number(const std::string& text, double* out) {
  if (text == "+Inf" || text == "Inf") {
    *out = HUGE_VAL;
    return true;
  }
  if (text == "-Inf") {
    *out = -HUGE_VAL;
    return true;
  }
  if (text == "NaN") {
    *out = NAN;
    return true;
  }
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return end != nullptr && *end == '\0' && end != text.c_str();
}

/// Parses `{key="value",...}` starting at s[*pos] == '{'; advances *pos past
/// the closing brace. Returns false (and reports) on malformed syntax.
bool parse_label_block(const std::string& s, std::size_t* pos,
                       std::size_t line_no,
                       std::vector<std::pair<std::string, std::string>>* out) {
  std::size_t i = *pos + 1;  // skip '{'
  while (i < s.size() && s[i] != '}') {
    std::size_t eq = s.find('=', i);
    if (eq == std::string::npos) {
      fail(line_no, "label block missing '='");
      return false;
    }
    std::string key = s.substr(i, eq - i);
    if (eq + 1 >= s.size() || s[eq + 1] != '"') {
      fail(line_no, "label value for '" + key + "' is not quoted");
      return false;
    }
    std::string value;
    std::size_t j = eq + 2;
    for (; j < s.size() && s[j] != '"'; ++j) {
      if (s[j] == '\\' && j + 1 < s.size()) {
        ++j;
        value += s[j] == 'n' ? '\n' : s[j];
      } else {
        value += s[j];
      }
    }
    if (j >= s.size()) {
      fail(line_no, "unterminated label value for '" + key + "'");
      return false;
    }
    if (!valid_label_name(key)) {
      fail(line_no, "invalid label name '" + key + "'");
    }
    out->emplace_back(std::move(key), std::move(value));
    i = j + 1;  // past closing quote
    if (i < s.size() && s[i] == ',') {
      ++i;
    }
  }
  if (i >= s.size()) {
    fail(line_no, "unterminated label block");
    return false;
  }
  *pos = i + 1;  // past '}'
  return true;
}

ParsedFile parse_file(std::istream& in) {
  ParsedFile parsed;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (parsed.saw_eof) {
      fail(line_no, "content after '# EOF'");
      break;
    }
    if (line.empty()) {
      continue;
    }
    if (line[0] == '#') {
      std::istringstream comment(line);
      std::string hash;
      std::string keyword;
      comment >> hash >> keyword;
      if (keyword == "EOF") {
        parsed.saw_eof = true;
      } else if (keyword == "TYPE") {
        std::string name;
        std::string type;
        comment >> name >> type;
        if (!valid_metric_name(name)) {
          fail(line_no, "invalid metric name '" + name + "' in # TYPE");
        }
        if (parsed.families.count(name) != 0) {
          fail(line_no, "duplicate # TYPE for '" + name + "'");
        }
        parsed.families[name] = Family{type, line_no};
      }
      // # HELP and any other comment: no structural content to check.
      continue;
    }
    Series s;
    s.line = line_no;
    std::size_t pos = 0;
    while (pos < line.size() && line[pos] != '{' && line[pos] != ' ') {
      ++pos;
    }
    s.name = line.substr(0, pos);
    if (!valid_metric_name(s.name)) {
      fail(line_no, "invalid sample name '" + s.name + "'");
      continue;
    }
    if (pos < line.size() && line[pos] == '{') {
      if (!parse_label_block(line, &pos, line_no, &s.labels)) {
        continue;
      }
    }
    while (pos < line.size() && line[pos] == ' ') {
      ++pos;
    }
    const std::string value_text = line.substr(pos);
    if (!parse_number(value_text, &s.value)) {
      fail(line_no, "unparsable sample value '" + value_text + "'");
      continue;
    }
    parsed.series.push_back(std::move(s));
  }
  if (!parsed.saw_eof) {
    fail(0, "exposition does not terminate with '# EOF'");
  }
  return parsed;
}

/// Family name a sample belongs to, given the declared families: longest
/// declared prefix whose suffix is legal for its type.
std::string owning_family(const ParsedFile& parsed, const Series& s,
                          std::string* suffix_out) {
  static const std::vector<std::string> kSuffixes = {"_bucket", "_count",
                                                     "_sum", "_total", ""};
  for (const auto& suffix : kSuffixes) {
    if (s.name.size() < suffix.size()) {
      continue;
    }
    const std::string base = s.name.substr(0, s.name.size() - suffix.size());
    if (!suffix.empty() &&
        s.name.compare(s.name.size() - suffix.size(), suffix.size(), suffix) !=
            0) {
      continue;
    }
    if (parsed.families.count(base) != 0) {
      *suffix_out = suffix;
      return base;
    }
  }
  return {};
}

bool suffix_legal(const std::string& type, const std::string& suffix,
                  const Series& s) {
  const bool has_quantile = [&s] {
    for (const auto& [k, v] : s.labels) {
      if (k == "quantile") {
        return true;
      }
    }
    return false;
  }();
  if (type == "counter") {
    return suffix == "_total";
  }
  if (type == "gauge" || type == "unknown") {
    return suffix.empty() && !has_quantile;
  }
  if (type == "histogram") {
    return suffix == "_bucket" || suffix == "_sum" || suffix == "_count";
  }
  if (type == "summary") {
    return (suffix.empty() && has_quantile) || suffix == "_sum" ||
           suffix == "_count";
  }
  return false;
}

std::string series_key(const Series& s) {
  auto labels = s.labels;
  std::sort(labels.begin(), labels.end());
  std::string key = s.name + "{";
  for (const auto& [k, v] : labels) {
    key += k + "=" + v + ",";
  }
  key += "}";
  return key;
}

/// Labels minus the given key, for grouping buckets/quantiles by series.
std::string group_key(const Series& s, const std::string& drop_key) {
  auto labels = s.labels;
  std::sort(labels.begin(), labels.end());
  std::string key = s.name + "{";
  for (const auto& [k, v] : labels) {
    if (k != drop_key) {
      key += k + "=" + v + ",";
    }
  }
  key += "}";
  return key;
}

void lint(const ParsedFile& parsed) {
  std::set<std::string> seen;
  for (const auto& s : parsed.series) {
    const std::string key = series_key(s);
    if (!seen.insert(key).second) {
      fail(s.line, "duplicate series " + key);
    }
    std::string suffix;
    const std::string family = owning_family(parsed, s, &suffix);
    if (family.empty()) {
      fail(s.line, "sample '" + s.name + "' has no preceding # TYPE family");
      continue;
    }
    const auto& fam = parsed.families.at(family);
    if (fam.line > s.line) {
      fail(s.line, "sample '" + s.name + "' precedes its # TYPE declaration");
    }
    if (!suffix_legal(fam.type, suffix, s)) {
      fail(s.line, "sample '" + s.name + "' is not a legal " + fam.type +
                       " sample of family '" + family + "'");
    }
  }

  // Histogram buckets: cumulative, +Inf-terminated, +Inf == _count.
  // Summary quantiles: estimates non-decreasing in q.
  struct Bucket {
    double threshold;
    double value;
    std::size_t line;
  };
  std::map<std::string, std::vector<Bucket>> buckets;   // by series sans le
  std::map<std::string, std::vector<Bucket>> quantiles; // sans quantile
  std::map<std::string, double> counts;                 // _count samples
  for (const auto& s : parsed.series) {
    std::string suffix;
    const std::string family = owning_family(parsed, s, &suffix);
    if (family.empty()) {
      continue;
    }
    const std::string type = parsed.families.at(family).type;
    if (type == "histogram" && suffix == "_bucket") {
      double le = 0.0;
      bool found = false;
      for (const auto& [k, v] : s.labels) {
        if (k == "le") {
          found = parse_number(v, &le);
        }
      }
      if (!found) {
        fail(s.line, "_bucket sample without a numeric 'le' label");
        continue;
      }
      buckets[group_key(s, "le")].push_back({le, s.value, s.line});
    } else if (type == "summary" && suffix.empty()) {
      double q = 0.0;
      for (const auto& [k, v] : s.labels) {
        if (k == "quantile") {
          parse_number(v, &q);
        }
      }
      quantiles[group_key(s, "quantile")].push_back({q, s.value, s.line});
    } else if (suffix == "_count") {
      counts[series_key(s)] = s.value;
    }
  }
  for (const auto& [key, row] : buckets) {
    for (std::size_t i = 1; i < row.size(); ++i) {
      if (row[i].threshold < row[i - 1].threshold) {
        fail(row[i].line, "bucket 'le' thresholds out of order in " + key);
      }
      if (row[i].value + 1e-9 < row[i - 1].value) {
        fail(row[i].line, "cumulative bucket counts decrease in " + key);
      }
    }
    if (row.empty() || std::isinf(row.back().threshold) == 0) {
      fail(row.empty() ? 0 : row.back().line,
           "histogram series " + key + " does not end with le=\"+Inf\"");
      continue;
    }
    // key is `name_bucket{rest}`; the matching count is `name_count{rest}`.
    std::string count_key = key;
    const auto at = count_key.find("_bucket{");
    count_key.replace(at, 8, "_count{");
    const auto it = counts.find(count_key);
    if (it != counts.end() && row.back().value != it->second) {
      fail(row.back().line,
           "le=\"+Inf\" bucket disagrees with _count in " + key);
    }
  }
  for (const auto& [key, row] : quantiles) {
    for (std::size_t i = 1; i < row.size(); ++i) {
      if (row[i].threshold > row[i - 1].threshold &&
          row[i].value + 1e-9 < row[i - 1].value) {
        fail(row[i].line,
             "summary quantile estimates decrease with q in " + key);
      }
    }
  }
}

// ---- assertion mini-language ------------------------------------------

struct Matcher {
  std::string key;
  std::string value;  // "*" = any
};

struct Selector {
  std::string name;
  std::vector<Matcher> matchers;
};

/// Parses `name` or `name{k=v,...}`; values may be bare or double-quoted
/// and `*` is a wildcard. Returns false on syntax error.
bool parse_selector(const std::string& text, Selector* out,
                    std::string* error) {
  const auto brace = text.find('{');
  out->name = text.substr(0, brace);
  if (out->name.empty()) {
    *error = "empty metric name in selector '" + text + "'";
    return false;
  }
  if (brace == std::string::npos) {
    return true;
  }
  if (text.back() != '}') {
    *error = "selector '" + text + "' missing closing '}'";
    return false;
  }
  std::string body = text.substr(brace + 1, text.size() - brace - 2);
  std::istringstream parts(body);
  std::string part;
  while (std::getline(parts, part, ',')) {
    const auto eq = part.find('=');
    if (eq == std::string::npos) {
      *error = "matcher '" + part + "' missing '='";
      return false;
    }
    std::string value = part.substr(eq + 1);
    if (value.size() >= 2 && value.front() == '"' && value.back() == '"') {
      value = value.substr(1, value.size() - 2);
    }
    out->matchers.push_back({part.substr(0, eq), std::move(value)});
  }
  return true;
}

bool selector_matches(const Selector& sel, const Series& s) {
  if (s.name != sel.name) {
    return false;
  }
  for (const auto& m : sel.matchers) {
    bool ok = false;
    for (const auto& [k, v] : s.labels) {
      if (k == m.key && (m.value == "*" || v == m.value)) {
        ok = true;
        break;
      }
    }
    if (!ok) {
      return false;
    }
  }
  return true;
}

/// Evaluates one term: number literal, `sum(selector)`, or bare selector
/// (which must match exactly one series).
bool eval_term(const ParsedFile& parsed, const std::string& raw, double* out,
               std::string* error) {
  if (parse_number(raw, out)) {
    return true;
  }
  bool summed = false;
  std::string text = raw;
  if (text.rfind("sum(", 0) == 0 && text.back() == ')') {
    summed = true;
    text = text.substr(4, text.size() - 5);
  }
  Selector sel;
  if (!parse_selector(text, &sel, error)) {
    return false;
  }
  double total = 0.0;
  std::size_t matched = 0;
  for (const auto& s : parsed.series) {
    if (selector_matches(sel, s)) {
      total += s.value;
      ++matched;
    }
  }
  if (matched == 0) {
    *error = "selector '" + text + "' matches no series";
    return false;
  }
  if (!summed && matched > 1) {
    *error = "selector '" + text + "' matches " + std::to_string(matched) +
             " series; wrap it in sum() to fold them";
    return false;
  }
  *out = total;
  return true;
}

bool nearly_equal(double a, double b) {
  if (a == b) {
    return true;
  }
  const double scale = std::max(std::fabs(a), std::fabs(b));
  return std::fabs(a - b) <= 1e-9 * scale;
}

/// Evaluates one whitespace-tokenized side of an assert: `term ( + term )*`.
bool eval_side(const ParsedFile& parsed,
               const std::vector<std::string>& tokens, std::size_t begin,
               std::size_t end, double* out, std::string* error) {
  if (begin >= end) {
    *error = "empty side";
    return false;
  }
  double total = 0.0;
  bool expect_term = true;
  for (std::size_t i = begin; i < end; ++i) {
    if (expect_term) {
      double value = 0.0;
      if (!eval_term(parsed, tokens[i], &value, error)) {
        return false;
      }
      total += value;
    } else if (tokens[i] != "+") {
      *error = "expected '+' before '" + tokens[i] + "'";
      return false;
    }
    expect_term = !expect_term;
  }
  if (expect_term) {
    *error = "dangling '+'";
    return false;
  }
  *out = total;
  return true;
}

void run_assert(const ParsedFile& parsed, const std::string& expr) {
  static const std::vector<std::string> kOps = {"==", "!=", "<=",
                                                ">=", "<",  ">"};
  std::vector<std::string> tokens;
  {
    std::istringstream in(expr);
    std::string token;
    while (in >> token) {
      tokens.push_back(token);
    }
  }
  std::size_t cmp_at = tokens.size();
  std::string op;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    if (std::find(kOps.begin(), kOps.end(), tokens[i]) != kOps.end()) {
      if (cmp_at != tokens.size()) {
        fail(0, "assert '" + expr + "': more than one comparator");
        return;
      }
      cmp_at = i;
      op = tokens[i];
    }
  }
  if (cmp_at == tokens.size()) {
    fail(0, "assert '" + expr +
                "': no comparator (want one of == != <= >= < >)");
    return;
  }
  double lhs = 0.0;
  double rhs = 0.0;
  std::string error;
  if (!eval_side(parsed, tokens, 0, cmp_at, &lhs, &error) ||
      !eval_side(parsed, tokens, cmp_at + 1, tokens.size(), &rhs, &error)) {
    fail(0, "assert '" + expr + "': " + error);
    return;
  }
  bool ok = false;
  if (op == "==") {
    ok = nearly_equal(lhs, rhs);
  } else if (op == "!=") {
    ok = !nearly_equal(lhs, rhs);
  } else if (op == "<=") {
    ok = lhs <= rhs;
  } else if (op == ">=") {
    ok = lhs >= rhs;
  } else if (op == "<") {
    ok = lhs < rhs;
  } else {
    ok = lhs > rhs;
  }
  if (!ok) {
    fail(0, "assert failed: " + expr + "  (lhs=" + std::to_string(lhs) +
                ", rhs=" + std::to_string(rhs) + ")");
  }
}

int usage() {
  std::fputs(
      "usage: metrics_check METRICS.txt [ASSERT...] [--verbose]\n"
      "  lints an OpenMetrics dump (names, types, cumulative buckets,\n"
      "  duplicate series, # EOF) and evaluates each ASSERT expression,\n"
      "  e.g. 'sum(sb_client_wait_count{title=*}) == sim_clients_served'.\n"
      "  exit 0 = clean, 1 = violation, 2 = usage/IO error\n",
      stderr);
  return 2;
}

int run(const vodbcast::util::ArgParser& args) {
  if (args.positional_count() < 1) {
    return usage();
  }
  if (const auto flag = args.unknown_flag({"verbose"})) {
    std::fprintf(stderr, "metrics_check: unknown flag --%s\n", flag->c_str());
    return usage();
  }
  std::ifstream in(args.positional(0));
  if (!in) {
    std::fprintf(stderr, "metrics_check: cannot open %s\n",
                 args.positional(0).c_str());
    return 2;
  }
  const ParsedFile parsed = parse_file(in);
  lint(parsed);
  for (std::size_t i = 1; i < args.positional_count(); ++i) {
    run_assert(parsed, args.positional(i));
  }
  if (args.has("verbose")) {
    std::fprintf(stderr, "metrics_check: %zu families, %zu series\n",
                 parsed.families.size(), parsed.series.size());
  }
  if (g_failures > 0) {
    std::fprintf(stderr, "metrics_check: %d violation(s) in %s\n", g_failures,
                 args.positional(0).c_str());
    return 1;
  }
  std::fprintf(stderr, "metrics_check: OK (%s)\n",
               args.positional(0).c_str());
  return 0;
}

}  // namespace

// A malformed flag throws from the parser or a typed read: a usage error.
int main(int argc, char** argv) {
  try {
    return run(vodbcast::util::ArgParser(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "metrics_check: %s\n", e.what());
    return 2;
  }
}
