// Command-line parsing for the engine CLI (dcn_run) and the bench
// harnesses.
//
// Promoted from bench/bench_util.h so every binary shares one parser:
// `--key value` options, bare `--flag` switches, comma-separated lists.
// bench_util.h now forwards here. Header-only on purpose — the bench
// targets link only the pieces of the library they exercise.
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace dcn::cli {

/// Minimal --key value / --flag parser. A value that does not parse
/// completely as the requested type, an option given twice, or an
/// option with no value after it is a usage error: the binary prints
/// the problem and exits with status 2 rather than run with a value
/// the user did not ask for.
class Args {
 public:
  Args(int argc, char** argv) : program_(argc > 0 ? argv[0] : "dcn") {
    for (int i = 1; i < argc; ++i) tokens_.emplace_back(argv[i]);
  }

  [[nodiscard]] bool has_flag(const std::string& name) const {
    for (const std::string& t : tokens_) {
      if (t == "--" + name) return true;
    }
    return false;
  }

  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback) const {
    const std::string* v = find(name);
    return v == nullptr ? fallback : *v;
  }

  [[nodiscard]] double get_double(const std::string& name, double fallback) const {
    const std::string* v = find(name);
    return v == nullptr ? fallback : parse_double(name, *v);
  }

  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const {
    const std::string* v = find(name);
    return v == nullptr ? fallback : parse_int(name, *v);
  }

  /// Comma-separated string list ("a,b,c"); `fallback` when absent.
  /// Empty segments ("a,,b") are skipped; a list with no item is a
  /// usage error.
  [[nodiscard]] std::vector<std::string> get_list(
      const std::string& name, const std::vector<std::string>& fallback) const {
    const std::string* v = find(name);
    return v == nullptr ? fallback : split(name, *v);
  }

  /// Comma-separated integer list, split like get_list.
  [[nodiscard]] std::vector<std::int64_t> get_int_list(
      const std::string& name, const std::vector<std::int64_t>& fallback) const {
    const std::string* v = find(name);
    if (v == nullptr) return fallback;
    std::vector<std::int64_t> out;
    for (const std::string& item : split(name, *v)) out.push_back(parse_int(name, item));
    return out;
  }

  /// Comma-separated number list, split like get_list.
  [[nodiscard]] std::vector<double> get_double_list(
      const std::string& name, const std::vector<double>& fallback) const {
    const std::string* v = find(name);
    if (v == nullptr) return fallback;
    std::vector<double> out;
    for (const std::string& item : split(name, *v)) out.push_back(parse_double(name, item));
    return out;
  }

 private:
  [[noreturn]] void usage_error(const std::string& message) const {
    std::fprintf(stderr, "%s: %s\n", program_.c_str(), message.c_str());
    std::exit(2);
  }

  /// The value after `--name`; nullptr when the option is absent.
  [[nodiscard]] const std::string* find(const std::string& name) const {
    const std::string key = "--" + name;
    const std::string* value = nullptr;
    for (std::size_t i = 0; i < tokens_.size(); ++i) {
      if (tokens_[i] != key) continue;
      if (value != nullptr) usage_error(key + " given more than once");
      if (i + 1 >= tokens_.size()) usage_error(key + " needs a value");
      value = &tokens_[i + 1];
    }
    return value;
  }

  [[nodiscard]] double parse_double(const std::string& name,
                                    const std::string& text) const {
    errno = 0;
    char* end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (text.empty() || end != text.c_str() + text.size()) {
      usage_error("--" + name + ": '" + text + "' is not a number");
    }
    if (errno == ERANGE) usage_error("--" + name + ": '" + text + "' is out of range");
    return v;
  }

  [[nodiscard]] std::int64_t parse_int(const std::string& name,
                                       const std::string& text) const {
    errno = 0;
    char* end = nullptr;
    const long long v = std::strtoll(text.c_str(), &end, 10);
    if (text.empty() || end != text.c_str() + text.size()) {
      usage_error("--" + name + ": '" + text + "' is not an integer");
    }
    if (errno == ERANGE) usage_error("--" + name + ": '" + text + "' is out of range");
    return v;
  }

  [[nodiscard]] std::vector<std::string> split(const std::string& name,
                                               const std::string& v) const {
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos < v.size()) {
      std::size_t next = v.find(',', pos);
      if (next == std::string::npos) next = v.size();
      if (next > pos) out.push_back(v.substr(pos, next - pos));
      pos = next + 1;
    }
    if (out.empty()) usage_error("--" + name + ": empty list");
    return out;
  }

  std::string program_;
  std::vector<std::string> tokens_;
};

/// Prints a horizontal rule sized for typical tables.
inline void rule() {
  std::printf("-------------------------------------------------------------------------------\n");
}

}  // namespace dcn::cli
