// Command-line flag parsing shared by every binary that is not allowed a
// real flags library: the fig*/ablation_* experiments (bench_util.h), the
// google-benchmark micros (micro_util.h) and the canon_doctor tool.
//
// Flags are "--name=value" (a bare "--name" is the empty string, which
// flag_bool treats as true). Unknown flags are ignored by these helpers;
// binaries that want strictness can enumerate argv themselves. A numeric
// value must parse whole: a sign, trailing garbage or overflow prints
// "bad value for --<name>: '<value>'" to stderr and exits 2.
#ifndef CANON_BENCH_FLAGS_H
#define CANON_BENCH_FLAGS_H

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <system_error>

namespace canon::bench {

/// Returns the value of "--name=value" from argv, or nullptr if absent.
/// A bare "--name" yields the empty string.
inline const char* flag_raw(int argc, char** argv, const char* name) {
  const std::string flag = std::string("--") + name;
  const std::string prefix = flag + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return argv[i] + prefix.size();
    }
    if (flag == argv[i]) return "";
  }
  return nullptr;
}

/// True iff "--name" or "--name=value" appears in argv at all. Lets a
/// binary keep an optional flag out of its recorded params (and so out of
/// the JSON report) unless the caller actually passed it.
inline bool flag_present(int argc, char** argv, const char* name) {
  return flag_raw(argc, argv, name) != nullptr;
}

/// Parses all of `v` into `out` with std::from_chars, refusing a leading
/// sign; on failure reports the flag and exits 2.
template <typename T>
void parse_flag_value(const char* name, const char* v, T& out) {
  const char* end = v + std::strlen(v);
  const auto [ptr, ec] = std::from_chars(v, end, out);
  if (*v == '-' || ec != std::errc{} || ptr != end) {
    std::fprintf(stderr, "bad value for --%s: '%s'\n", name, v);
    std::exit(2);
  }
}

/// Parses "--name=value" as an unsigned decimal; returns `fallback` if the
/// flag is absent or bare.
inline std::uint64_t flag_u64(int argc, char** argv, const char* name,
                              std::uint64_t fallback) {
  const char* v = flag_raw(argc, argv, name);
  if (!v || !*v) return fallback;
  std::uint64_t out = 0;
  parse_flag_value(name, v, out);
  return out;
}

/// Parses "--name=value" as a non-negative decimal or scientific number;
/// returns `fallback` if the flag is absent or bare.
inline double flag_double(int argc, char** argv, const char* name,
                          double fallback) {
  const char* v = flag_raw(argc, argv, name);
  if (!v || !*v) return fallback;
  double out = 0;
  parse_flag_value(name, v, out);
  return out;
}

inline std::string flag_str(int argc, char** argv, const char* name,
                            const char* fallback) {
  const char* v = flag_raw(argc, argv, name);
  return v ? std::string(v) : std::string(fallback);
}

/// "--name" and "--name=true/1/yes/on" are true; "--name=false/0/no/off"
/// is false; absent is `fallback`.
inline bool flag_bool(int argc, char** argv, const char* name, bool fallback) {
  const char* v = flag_raw(argc, argv, name);
  if (!v) return fallback;
  if (!*v) return true;
  const std::string s(v);
  return !(s == "false" || s == "0" || s == "no" || s == "off");
}

}  // namespace canon::bench

#endif  // CANON_BENCH_FLAGS_H
