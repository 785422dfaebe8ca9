#pragma once

// FNV-1a, the hash behind the order-exact digest streams: engine
// checkpoints, campus and NAN cell digests, scenario traces and the campus
// bench sweep. Words are folded as little-endian bytes, so a digest is the
// same on every host.

#include <cstddef>
#include <cstdint>

namespace efd::sim {

struct Fnv1a64 {
  std::uint64_t h = 0xcbf29ce484222325ULL;

  void mix_byte(std::uint8_t b) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  void mix_bytes(const std::uint8_t* p, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) mix_byte(p[i]);
  }
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) mix_byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void mix(std::int64_t v) { mix(static_cast<std::uint64_t>(v)); }
  /// Sign-extended to 64 bits: mix(-1) == mix(std::int64_t{-1}).
  void mix(int v) { mix(static_cast<std::int64_t>(v)); }
};

}  // namespace efd::sim
