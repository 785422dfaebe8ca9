#pragma once

// Robust parsing for the small family of EFD_* "count" environment
// variables (EFD_BENCH_THREADS, EFD_SHARDS, EFD_PROPTEST_N, ...) and the
// `efd` CLI's numeric arguments (counts, station ids, seeds, seconds).
// These are typed by hand in CI YAML and shell one-liners, so empty
// strings, stray whitespace, negative numbers and plain garbage must all
// be caught instead of UB (atoi on "9999999999999") or a throw.

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <limits>
#include <optional>

namespace efd::core {

/// Parse `raw` as a decimal integer in [lo, hi], surrounding whitespace
/// allowed. Returns nullopt when `raw` is null, empty, non-numeric, has
/// trailing garbage, overflows long long, or falls outside [lo, hi]. Never
/// throws.
[[nodiscard]] inline std::optional<long long> parse_decimal(const char* raw,
                                                            long long lo,
                                                            long long hi) {
  if (raw == nullptr) return std::nullopt;
  const char* p = raw;
  while (std::isspace(static_cast<unsigned char>(*p)) != 0) ++p;
  if (*p == '\0') return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(p, &end, 10);
  if (end == p || errno == ERANGE) return std::nullopt;
  while (std::isspace(static_cast<unsigned char>(*end)) != 0) ++end;
  if (*end != '\0') return std::nullopt;
  if (v < lo || v > hi) return std::nullopt;
  return v;
}

/// Parse environment variable `name` as a positive decimal count.
/// Returns `fallback` when the variable is unset or not a positive count;
/// values above `max_value` clamp to `max_value`. Never throws.
[[nodiscard]] inline int env_count(const char* name, int fallback,
                                   int max_value = 1 << 20) {
  const std::optional<long long> v =
      parse_decimal(std::getenv(name), 1, std::numeric_limits<long long>::max());
  if (!v) return fallback;
  return static_cast<int>(std::min<long long>(*v, max_value));
}

}  // namespace efd::core
