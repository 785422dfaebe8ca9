#pragma once

// Robust parsing for the small family of EFD_* "count" environment
// variables (EFD_BENCH_THREADS, EFD_SHARDS, EFD_PROPTEST_N, ...) and the
// `efd` CLI's count flags. These are typed by hand in CI YAML and shell
// one-liners, so empty strings, stray whitespace, negative numbers and
// plain garbage must all be caught instead of UB (atoi on "9999999999999")
// or a throw.

#include <cctype>
#include <cerrno>
#include <cstdlib>

namespace efd::core {

/// Parse `raw` as a positive decimal count, surrounding whitespace allowed.
/// Returns 0 when `raw` is null, empty, non-numeric, has trailing garbage,
/// overflows long, or is zero/negative. Never throws.
[[nodiscard]] inline long parse_count(const char* raw) {
  if (raw == nullptr) return 0;
  const char* p = raw;
  while (std::isspace(static_cast<unsigned char>(*p)) != 0) ++p;
  if (*p == '\0') return 0;
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(p, &end, 10);
  if (end == p || errno == ERANGE) return 0;
  while (std::isspace(static_cast<unsigned char>(*end)) != 0) ++end;
  if (*end != '\0') return 0;
  return v > 0 ? v : 0;
}

/// Parse environment variable `name` with parse_count's rules.
/// Returns `fallback` when the variable is unset or not a positive count;
/// values above `max_value` clamp to `max_value`. Never throws.
[[nodiscard]] inline int env_count(const char* name, int fallback,
                                   int max_value = 1 << 20) {
  const long v = parse_count(std::getenv(name));
  if (v == 0) return fallback;
  if (v > static_cast<long>(max_value)) return max_value;
  return static_cast<int>(v);
}

}  // namespace efd::core
