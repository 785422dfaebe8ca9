#include "src/sim/rng.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <iterator>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace efd::sim {

namespace {

constexpr std::size_t kShift = 156;
constexpr std::uint64_t kUpper = ~std::uint64_t{0x7fffffff};
constexpr std::uint64_t kLower = 0x7fffffff;
constexpr std::uint64_t kMatrix = 0xb5026f5aa96619e9ULL;

std::uint64_t twist(std::uint64_t cur, std::uint64_t next, std::uint64_t far) {
  const std::uint64_t y = (cur & kUpper) | (next & kLower);
  return far ^ (y >> 1) ^ ((0 - (y & 1)) & kMatrix);
}

#if defined(__SSE2__)
/// twist on two adjacent words: x[k], x[k + 1] from cur = x[k..k+1],
/// next = x[k+1..k+2] and far = the two words kShift away.
__m128i twist2(__m128i cur, __m128i next, __m128i far) {
  const __m128i y =
      _mm_or_si128(_mm_and_si128(cur, _mm_set1_epi64x(static_cast<long long>(kUpper))),
                   _mm_and_si128(next, _mm_set1_epi64x(kLower)));
  const __m128i odd = _mm_sub_epi64(_mm_setzero_si128(),
                                    _mm_and_si128(y, _mm_set1_epi64x(1)));
  return _mm_xor_si128(
      _mm_xor_si128(far, _mm_srli_epi64(y, 1)),
      _mm_and_si128(odd, _mm_set1_epi64x(static_cast<long long>(kMatrix))));
}

__m128i load2(const std::uint64_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}
#endif

/// A polar coordinate 2u - 1 from one untempered engine word, where u is
/// libstdc++'s generate_canonical<double, 53> on that output: double(w)
/// rounded once, scaled by 2^-64, and clamped below 1. The two 32-bit halves
/// convert exactly, and their sum rounds once, so no unsigned-to-double
/// branch is needed.
inline double polar_coord(std::uint64_t word) {
  const std::uint64_t w = Mt19937_64::temper(word);
  const double hi = static_cast<double>(static_cast<std::int64_t>(w >> 32));
  const double lo = static_cast<double>(static_cast<std::int64_t>(w & 0xffffffffULL));
  const double u = std::min((hi * 0x1p32 + lo) * 0x1p-64, 0x1.fffffffffffffp-1);
  return 2.0 * u - 1.0;
}

}  // namespace

// Word k's new value reads only old words ahead of it (k + 1, and k + 156
// in the first half) and new words behind it (k - 156 in the second half,
// all finished by then), so neighbouring words twist independently: two per
// SSE2 step, which x86-64 always has. Other targets run the same recurrence
// one word at a time.
void Mt19937_64::regen() {
  std::size_t k = 0;
#if defined(__SSE2__)
  std::uint64_t* x = x_.data();
  for (; k + 2 <= kWords - kShift; k += 2) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(x + k),
                     twist2(load2(x + k), load2(x + k + 1), load2(x + k + kShift)));
  }
  for (; k + 2 <= kWords - 1; k += 2) {
    _mm_storeu_si128(
        reinterpret_cast<__m128i*>(x + k),
        twist2(load2(x + k), load2(x + k + 1), load2(x + k + kShift - kWords)));
  }
#endif
  for (; k < kWords - kShift; ++k) x_[k] = twist(x_[k], x_[k + 1], x_[k + kShift]);
  for (; k < kWords - 1; ++k) {
    x_[k] = twist(x_[k], x_[k + 1], x_[k + kShift - kWords]);
  }
  x_[kWords - 1] = twist(x_[kWords - 1], x_[0], x_[kShift - 1]);
  p_ = 0;
}

// libstdc++'s polar method, op for op: each word becomes 2u - 1, a pair is
// kept unless r = x^2 + y^2 is above 1 or zero, and a kept pair yields
// y * sqrt(-2 log(r) / r) * stddev + mean. This TU is built with
// -ffp-contract=off, so nothing is fused.
double Rng::normal(double mean, double stddev) {
  for (;;) {
    const double x = polar_coord(engine_.ahead()[0]);
    engine_.advance(1);
    const double y = polar_coord(engine_.ahead()[0]);
    engine_.advance(1);
    const double r = x * x + y * y;
    if (r > 1.0 || r == 0.0) continue;
    const double mult = std::sqrt(-2 * std::log(r) / r);
    return (y * mult) * stddev + mean;
  }
}

std::size_t polar_accept_scalar(const std::uint64_t* words, std::size_t n_words,
                                double* y, double* r) {
  assert(n_words % 2 == 0 && n_words <= Mt19937_64::kWords);
  // Written before read; zeroing it would cost every call a memset.
  double coord[Mt19937_64::kWords];
  for (std::size_t i = 0; i < n_words; ++i) coord[i] = polar_coord(words[i]);
  // Accept or reject each pair without a branch: every pair is written
  // at the accepted count, which only an accepted pair moves on.
  std::size_t have = 0;
  for (std::size_t j = 0; j < n_words / 2; ++j) {
    const double px = coord[2 * j];
    const double py = coord[2 * j + 1];
    const double r2 = px * px + py * py;
    y[have] = py;
    r[have] = r2;
    have += static_cast<std::size_t>(!(r2 > 1.0 || r2 == 0.0));
  }
  return have;
}

void polar_transform_scalar(const double* y, const double* r, std::size_t n,
                            double mean, double stddev, double* out) {
  for (std::size_t k = 0; k < n; ++k) {
    const double mult = std::sqrt(-2 * std::log(r[k]) / r[k]);
    out[k] = (y[k] * mult) * stddev + mean;
  }
}

// Each pair yields at most one variate, so a chunk of at most two words per
// pair still owed never walks past the pair that completes the last one:
// every word it reads is consumed, and the engine stops where the per-call
// loop would. A pair that straddles a block end is copied out and goes
// through the same accept function.
void Rng::polar_pairs(std::span<double> y, std::span<double> r,
                      PolarAcceptFn accept) {
  assert(r.size() == y.size());
  std::size_t done = 0;
  while (done < y.size()) {
    const std::span<const std::uint64_t> words = engine_.ahead();
    if (words.size() == 1) {
      // x is this block's last word, y the next block's first.
      std::uint64_t pair[2] = {words[0], 0};
      engine_.advance(1);
      pair[1] = engine_.ahead()[0];
      engine_.advance(1);
      done += accept(pair, 2, y.data() + done, r.data() + done);
    } else {
      const std::size_t n_words =
          std::min(2 * (y.size() - done), words.size() & ~std::size_t{1});
      done += accept(words.data(), n_words, y.data() + done, r.data() + done);
      engine_.advance(n_words);
    }
  }
}

// Chunks of one engine block's pairs keep r on the stack; `out` holds the
// chunk's y until the transform overwrites it in place.
void Rng::normal_fill(std::span<double> out, double mean, double stddev,
                      const PolarKernels& kernels) {
  double r[Mt19937_64::kWords / 2];
  for (std::size_t done = 0; done < out.size();) {
    const std::size_t n = std::min(out.size() - done, std::size(r));
    double* chunk = out.data() + done;
    polar_pairs({chunk, n}, {r, n}, kernels.accept);
    kernels.transform(chunk, r, n, mean, stddev, chunk);
    done += n;
  }
}

}  // namespace efd::sim
