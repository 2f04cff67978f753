// Minimal command-line parsing for the vodbcast tool: positional words plus
// `--flag value` / `--flag=value` options, with typed accessors that
// contract-check malformed numbers.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace vodbcast::util {

class ArgParser {
 public:
  /// Parses argv-style input (excluding the program name). A token starting
  /// with "--" introduces a flag; its value is the text after '=' or, when
  /// absent, the following token ("true" if none follows or the next token
  /// is itself a flag). All other tokens are positionals, in order. A flag
  /// given twice, in either syntax, throws ContractViolation naming it:
  /// the parser does not pick one of the two values.
  explicit ArgParser(const std::vector<std::string>& args);
  /// argv-style entry point: argv[0] (the program name) is skipped.
  ArgParser(int argc, const char* const* argv);

  [[nodiscard]] std::size_t positional_count() const noexcept {
    return positionals_.size();
  }
  /// i-th positional; contract-checked.
  [[nodiscard]] const std::string& positional(std::size_t i) const;

  [[nodiscard]] bool has(const std::string& flag) const;
  [[nodiscard]] std::optional<std::string> get(const std::string& flag) const;

  /// Typed accessors with defaults; throw ContractViolation on junk. A
  /// double must be finite: inf, nan and 1e999 are junk too.
  [[nodiscard]] std::string get_string(const std::string& flag,
                                       const std::string& fallback) const;
  [[nodiscard]] double get_double(const std::string& flag,
                                  double fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& flag,
                                     std::int64_t fallback) const;
  [[nodiscard]] std::uint64_t get_uint(const std::string& flag,
                                       std::uint64_t fallback) const;

  /// Comma-separated list values (e.g. `--regions 400,300,300`). Absent
  /// flag -> `fallback`. Each element is validated individually; a
  /// malformed, non-finite or empty (leading/trailing/double comma) element
  /// throws ContractViolation naming the flag, the 1-based element position
  /// and the offending text.
  [[nodiscard]] std::vector<double> get_double_list(
      const std::string& flag, const std::vector<double>& fallback) const;
  [[nodiscard]] std::vector<std::uint64_t> get_uint_list(
      const std::string& flag,
      const std::vector<std::uint64_t>& fallback) const;

  /// The first parsed flag (in name order) that is not in `allowed`, or
  /// nullopt when every flag is known. A command declares the flags it
  /// reads and rejects the rest, so a typo cannot silently fall back to a
  /// default.
  [[nodiscard]] std::optional<std::string> unknown_flag(
      const std::vector<std::string>& allowed) const;

 private:
  std::vector<std::string> positionals_;
  std::map<std::string, std::string> flags_;
};

}  // namespace vodbcast::util
