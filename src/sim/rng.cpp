#include "src/sim/rng.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>

namespace efd::sim {

namespace {

/// A polar coordinate 2u - 1 from one untempered engine word, where u is
/// libstdc++'s generate_canonical<double, 53> on that output: double(w)
/// rounded once, scaled by 2^-64, and clamped below 1. The two 32-bit halves
/// convert exactly, and their sum rounds once, so no unsigned-to-double
/// branch is needed.
double polar_coord(std::uint64_t word) {
  const std::uint64_t w = Mt19937_64::temper(word);
  const double hi = static_cast<double>(static_cast<std::int64_t>(w >> 32));
  const double lo = static_cast<double>(static_cast<std::int64_t>(w & 0xffffffffULL));
  const double u = std::min((hi * 0x1p32 + lo) * 0x1p-64, 0x1.fffffffffffffp-1);
  return 2.0 * u - 1.0;
}

}  // namespace

// libstdc++'s polar method, op for op: each word becomes 2u - 1, a pair is
// kept unless r = x^2 + y^2 is above 1 or zero, and a kept pair yields
// y * sqrt(-2 log(r) / r) * stddev + mean. This TU is built with
// -ffp-contract=off, so nothing is fused.
std::size_t polar_block_scalar(const std::uint64_t* words, std::size_t n_words,
                               double mean, double stddev, double* y) {
  constexpr std::size_t kPairs = Mt19937_64::kWords / 2;
  assert(n_words % 2 == 0 && n_words <= Mt19937_64::kWords);
  // Written before read; zeroing them would cost every one-element
  // normal() call a 5 KB memset.
  double coord[Mt19937_64::kWords];
  double ys[kPairs];
  double r2[kPairs];
  for (std::size_t i = 0; i < n_words; ++i) coord[i] = polar_coord(words[i]);
  // Accept or reject each pair without a branch: every pair is written
  // at the accepted count, which only an accepted pair moves on.
  std::size_t have = 0;
  for (std::size_t j = 0; j < n_words / 2; ++j) {
    const double px = coord[2 * j];
    const double py = coord[2 * j + 1];
    const double r = px * px + py * py;
    ys[have] = py;
    r2[have] = r;
    have += static_cast<std::size_t>(!(r > 1.0 || r == 0.0));
  }
  for (std::size_t k = 0; k < have; ++k) {
    const double mult = std::sqrt(-2 * std::log(r2[k]) / r2[k]);
    y[k] = (ys[k] * mult) * stddev + mean;
  }
  return have;
}

// Each pair yields at most one variate, so a chunk of at most two words per
// variate still owed never walks past the pair that completes the last one:
// every word it reads is consumed, and the engine stops where the per-call
// loop would. A pair that straddles a block end is copied out and goes
// through the same block function.
void Rng::normal_fill(std::span<double> out, double mean, double stddev,
                      PolarBlockFn block) {
  std::size_t done = 0;
  while (done < out.size()) {
    const std::span<const std::uint64_t> words = engine_.ahead();
    if (words.size() == 1) {
      // x is this block's last word, y the next block's first.
      std::uint64_t pair[2] = {words[0], 0};
      engine_.advance(1);
      pair[1] = engine_.ahead()[0];
      engine_.advance(1);
      done += block(pair, 2, mean, stddev, out.data() + done);
    } else {
      const std::size_t n_words =
          std::min(2 * (out.size() - done), words.size() & ~std::size_t{1});
      done += block(words.data(), n_words, mean, stddev, out.data() + done);
      engine_.advance(n_words);
    }
  }
}

}  // namespace efd::sim
