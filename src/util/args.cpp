#include "util/args.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>

#include "util/contracts.hpp"

namespace vodbcast::util {

namespace {

/// The whole of `text` as a finite double; nullopt for junk, an empty
/// string, inf, nan or a literal that overflows to inf (1e999).
std::optional<double> parse_finite(const std::string& text) {
  char* end = nullptr;
  const double parsed = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || !std::isfinite(parsed)) {
    return std::nullopt;
  }
  return parsed;
}

/// Splits on ',' keeping empty pieces, so "4,,2" and "4,2," surface the
/// empty element to the per-element validator instead of vanishing.
std::vector<std::string> split_list(const std::string& text) {
  std::vector<std::string> parts;
  std::size_t begin = 0;
  for (;;) {
    const auto comma = text.find(',', begin);
    if (comma == std::string::npos) {
      parts.push_back(text.substr(begin));
      return parts;
    }
    parts.push_back(text.substr(begin, comma - begin));
    begin = comma + 1;
  }
}

}  // namespace

ArgParser::ArgParser(const std::vector<std::string>& args) {
  const auto set = [this](const std::string& flag, const std::string& value) {
    const bool first = flags_.emplace(flag, value).second;
    VB_EXPECTS_MSG(first, "--" + flag + " is given more than once");
  };
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& token = args[i];
    if (token.rfind("--", 0) != 0) {
      positionals_.push_back(token);
      continue;
    }
    const std::string body = token.substr(2);
    VB_EXPECTS_MSG(!body.empty(), "bare '--' is not a flag");
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      set(body.substr(0, eq), body.substr(eq + 1));
      continue;
    }
    if (i + 1 < args.size() && args[i + 1].rfind("--", 0) != 0) {
      set(body, args[i + 1]);
      ++i;
    } else {
      set(body, "true");
    }
  }
}

ArgParser::ArgParser(int argc, const char* const* argv)
    : ArgParser(std::vector<std::string>(argv + std::min(argc, 1),
                                         argv + argc)) {
}

const std::string& ArgParser::positional(std::size_t i) const {
  VB_EXPECTS(i < positionals_.size());
  return positionals_[i];
}

bool ArgParser::has(const std::string& flag) const {
  return flags_.count(flag) > 0;
}

std::optional<std::string> ArgParser::get(const std::string& flag) const {
  const auto it = flags_.find(flag);
  if (it == flags_.end()) {
    return std::nullopt;
  }
  return it->second;
}

std::optional<std::string> ArgParser::unknown_flag(
    const std::vector<std::string>& allowed) const {
  for (const auto& [flag, value] : flags_) {
    if (std::find(allowed.begin(), allowed.end(), flag) == allowed.end()) {
      return flag;
    }
  }
  return std::nullopt;
}

std::string ArgParser::get_string(const std::string& flag,
                                  const std::string& fallback) const {
  return get(flag).value_or(fallback);
}

double ArgParser::get_double(const std::string& flag, double fallback) const {
  const auto value = get(flag);
  if (!value.has_value()) {
    return fallback;
  }
  const auto parsed = parse_finite(*value);
  VB_EXPECTS_MSG(parsed.has_value(), "--" + flag +
                                         " expects a finite number, got '" +
                                         *value + "'");
  return *parsed;
}

std::int64_t ArgParser::get_int(const std::string& flag,
                                std::int64_t fallback) const {
  const auto value = get(flag);
  if (!value.has_value()) {
    return fallback;
  }
  std::int64_t parsed = 0;
  const auto [ptr, ec] = std::from_chars(
      value->data(), value->data() + value->size(), parsed);
  VB_EXPECTS_MSG(ec == std::errc() && ptr == value->data() + value->size(),
                 "--" + flag + " expects an integer, got '" + *value + "'");
  return parsed;
}

std::uint64_t ArgParser::get_uint(const std::string& flag,
                                  std::uint64_t fallback) const {
  const auto value = get(flag);
  if (!value.has_value()) {
    return fallback;
  }
  if (*value == "inf" || *value == "infinite") {
    return static_cast<std::uint64_t>(-1);
  }
  std::uint64_t parsed = 0;
  const auto [ptr, ec] = std::from_chars(
      value->data(), value->data() + value->size(), parsed);
  VB_EXPECTS_MSG(ec == std::errc() && ptr == value->data() + value->size(),
                 "--" + flag + " expects an unsigned integer, got '" +
                     *value + "'");
  return parsed;
}

std::vector<double> ArgParser::get_double_list(
    const std::string& flag, const std::vector<double>& fallback) const {
  const auto value = get(flag);
  if (!value.has_value()) {
    return fallback;
  }
  VB_EXPECTS_MSG(!value->empty(),
                 "--" + flag + " expects a comma-separated list, got ''");
  std::vector<double> out;
  const auto parts = split_list(*value);
  for (std::size_t i = 0; i < parts.size(); ++i) {
    const auto parsed = parse_finite(parts[i]);
    VB_EXPECTS_MSG(parsed.has_value(),
                   "--" + flag + " element " + std::to_string(i + 1) +
                       " must be a finite number, got '" + parts[i] +
                       "' in '" + *value + "'");
    out.push_back(*parsed);
  }
  return out;
}

std::vector<std::uint64_t> ArgParser::get_uint_list(
    const std::string& flag,
    const std::vector<std::uint64_t>& fallback) const {
  const auto value = get(flag);
  if (!value.has_value()) {
    return fallback;
  }
  VB_EXPECTS_MSG(!value->empty(),
                 "--" + flag + " expects a comma-separated list, got ''");
  std::vector<std::uint64_t> out;
  const auto parts = split_list(*value);
  for (std::size_t i = 0; i < parts.size(); ++i) {
    const std::string& part = parts[i];
    std::uint64_t parsed = 0;
    const auto [ptr, ec] =
        std::from_chars(part.data(), part.data() + part.size(), parsed);
    VB_EXPECTS_MSG(
        !part.empty() && ec == std::errc() &&
            ptr == part.data() + part.size(),
        "--" + flag + " element " + std::to_string(i + 1) +
            " must be an unsigned integer, got '" + part + "' in '" +
            *value + "'");
    out.push_back(parsed);
  }
  return out;
}

}  // namespace vodbcast::util
