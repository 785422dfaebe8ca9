#include "src/sim/rng.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <ostream>
#include <random>
#include <vector>

#include "src/grid/simd.hpp"
#include "src/sim/stats.hpp"

namespace efd::grid::simd {

// List a kernel entry by name, not by its address, so CTest's test names
// stay stable (AllImpls/PolarBlock.<Test>/avx2).
void PrintTo(const CarrierKernels* k, std::ostream* os) { *os << k->name; }

}  // namespace efd::grid::simd

namespace efd::sim {
namespace {

TEST(Rng, SameSeedSameSequence) {
  Rng a{7}, b{7};
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a{7}, b{8};
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform() == b.uniform()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, ForkIsDeterministic) {
  Rng base{7};
  Rng f1 = base.fork(1);
  Rng f2 = Rng{7}.fork(1);
  for (int i = 0; i < 50; ++i) EXPECT_DOUBLE_EQ(f1.uniform(), f2.uniform());
}

TEST(Rng, ForksAreIndependentStreams) {
  Rng base{7};
  Rng f1 = base.fork(1);
  Rng f2 = base.fork(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (f1.uniform() == f2.uniform()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, ForkDoesNotDisturbParent) {
  Rng a{9}, b{9};
  (void)a.fork(3);
  for (int i = 0; i < 20; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, UniformRange) {
  Rng rng{1};
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformAbRange) {
  Rng rng{1};
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng{1};
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(0, 7);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 7);
    saw_lo |= v == 0;
    saw_hi |= v == 7;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMoments) {
  Rng rng{2};
  RunningStats s;
  for (int i = 0; i < 20000; ++i) s.add(rng.normal(10.0, 2.0));
  EXPECT_NEAR(s.mean(), 10.0, 0.1);
  EXPECT_NEAR(s.stddev(), 2.0, 0.1);
}

TEST(Rng, ExponentialMean) {
  Rng rng{3};
  RunningStats s;
  for (int i = 0; i < 20000; ++i) s.add(rng.exponential_mean(4.0));
  EXPECT_NEAR(s.mean(), 4.0, 0.2);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng{4};
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_FALSE(rng.bernoulli(-1.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
  EXPECT_TRUE(rng.bernoulli(2.0));
}

TEST(Rng, BernoulliFrequency) {
  Rng rng{5};
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(Rng, LognormalLinearMean) {
  Rng rng{6};
  RunningStats s;
  for (int i = 0; i < 50000; ++i) s.add(rng.lognormal(5.0, 0.3));
  EXPECT_NEAR(s.mean(), 5.0, 0.15);
}

// Golden streams: the first 8 draws of every transform from Rng{1}, as
// exact hexfloat literals. Simulation digests depend on these streams, and
// the distributions come from the standard library, so a toolchain whose
// <random> draws differently must fail here first, naming the transform,
// instead of surfacing as an unexplained digest change.

template <typename T, typename Draw>
void expect_stream(const char* transform, const T (&golden)[8], Draw draw) {
  Rng rng{1};
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(draw(rng), golden[i]) << transform << " draw " << i;
  }
}

TEST(RngGolden, Uniform) {
  const double golden[8] = {
      0x1.109f48cd2b63p-1,  0x1.c90fc93c4f5b8p-1, 0x1.c7ef13b35fb6cp-1,
      0x1.1c52c9ecabc72p-1, 0x1.c64ce0ae628a4p-4, 0x1.d82229379b391p-3,
      0x1.9a6427fea10f8p-2, 0x1.62045e69f8502p-1};
  expect_stream("uniform", golden, [](Rng& r) { return r.uniform(); });
}

TEST(RngGolden, UniformAb) {
  const double golden[8] = {
      0x1.427d2334ad8cp+0,   0x1.090fc93c4f5b8p+2,  0x1.07ef13b35fb6cp+2,
      0x1.714b27b2af1c8p+0,  -0x1.0e6cc7d4675d7p+1, -0x1.27ddd6c864c6fp+0,
      0x1.a6427fea10f8p-3,   0x1.4408bcd3f0a04p+1};
  expect_stream("uniform(a,b)", golden,
                [](Rng& r) { return r.uniform(-3.0, 5.0); });
}

TEST(RngGolden, UniformInt) {
  const std::int64_t golden[8] = {532, 893, 891, 555, 111, 230, 401, 692};
  expect_stream("uniform_int", golden,
                [](Rng& r) { return r.uniform_int(0, 1000); });
}

TEST(RngGolden, Normal) {
  const double golden[8] = {
      0x1.7e40f455e7438p+3, 0x1.48bebbd30e012p+3, 0x1.2eec66bb7369bp+3,
      0x1.a83845a351594p+3, 0x1.1e0addef6c22cp+3, 0x1.62a8b9a4dd398p+3,
      0x1.766bff38405c7p+3, 0x1.836d5eedadf6dp+3};
  expect_stream("normal", golden, [](Rng& r) { return r.normal(10.0, 2.0); });
}

TEST(RngGolden, Exponential) {
  const double golden[8] = {
      0x1.8543a0d28128fp+1, 0x1.1db5e2f939e3p+3,  0x1.1b1c09e6f1df1p+3,
      0x1.9eec89df74febp+1, 0x1.e186fa4e9e7a4p-2, 0x1.0c5908df998b9p+0,
      0x1.0633d780242a7p+1, 0x1.2d03b188cdd75p+2};
  expect_stream("exponential_mean", golden,
                [](Rng& r) { return r.exponential_mean(4.0); });
}

TEST(RngGolden, Bernoulli) {
  const bool golden[8] = {false, false, false, false, true, true, false, false};
  expect_stream("bernoulli", golden, [](Rng& r) { return r.bernoulli(0.3); });
}

TEST(RngGolden, Lognormal) {
  const double golden[8] = {
      0x1.9994ce295c48dp+2, 0x1.3eb85b84dd284p+2, 0x1.1a62cb68c02cep+2,
      0x1.f29f9fd4fe018p+2, 0x1.04e6eb7ad0a66p+2, 0x1.67e2a4d28fe62p+2,
      0x1.8ad143b382cdfp+2, 0x1.a3a2a6b82c91ep+2};
  expect_stream("lognormal", golden,
                [](Rng& r) { return r.lognormal(5.0, 0.3); });
}

// Batch draws: the in-repo engine and Rng::normal_fill against the standard
// library they must reproduce bit for bit.

TEST(RngBatch, EngineMatchesStdMt19937_64) {
  Mt19937_64 ours{0x5eedULL};
  std::mt19937_64 ref{0x5eedULL};
  for (std::size_t i = 0; i < 3 * Mt19937_64::kWords; ++i) {
    ASSERT_EQ(ours(), ref()) << "output " << i;
  }
}

TEST(RngBatch, EngineTenThousandthOutputIsTheStandards) {
  // [rand.predef]: the 10000th consecutive output of a default-constructed
  // mt19937_64 (seed 5489).
  Mt19937_64 e{5489};
  for (int i = 1; i < 10000; ++i) (void)e();
  EXPECT_EQ(e(), 9981545732273789042ULL);
}

/// The test-only oracle: a std::mt19937_64 seeded as Rng{seed} seeds its
/// engine (the splitmix64 finalizer of the seed).
std::mt19937_64 oracle_engine(std::uint64_t seed) {
  std::uint64_t x = seed + 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return std::mt19937_64{x ^ (x >> 31)};
}

/// Rng::normal_fill through `block` against std::normal_distribution on the
/// oracle engine, bit for bit, across block boundaries and odd offsets.
void expect_normal_fill_matches_oracle(PolarBlockFn block) {
  const std::size_t lengths[] = {0,   1,   2,   155, 156,  157,
                                 311, 312, 313, 917, 2232, 5000};
  // Every uniform() consumes one engine word, so `offset` uniforms start the
  // batch at that position in the first block. 311 leaves one word, so the
  // first pair straddles the block boundary; the odd offsets hit that carry
  // again at every later boundary.
  const std::size_t offsets[] = {0, 1, 2, 311};
  const double sds[] = {1e-9, 0.3, 2.0};
  const double means[] = {0.0, 10.0};
  std::uint64_t seed = 100;
  for (const std::size_t n : lengths) {
    for (const std::size_t offset : offsets) {
      for (const double sd : sds) {
        for (const double mean : means) {
          SCOPED_TRACE(::testing::Message() << "n " << n << " offset " << offset
                                            << " sd " << sd << " mean " << mean);
          Rng rng{++seed};
          std::mt19937_64 ref = oracle_engine(seed);
          std::uniform_real_distribution<double> unit{0.0, 1.0};
          for (std::size_t i = 0; i < offset; ++i) {
            ASSERT_EQ(rng.uniform(), unit(ref));
          }
          std::vector<double> got(n);
          rng.normal_fill(got, mean, sd, block);
          for (std::size_t i = 0; i < n; ++i) {
            const double want = std::normal_distribution<double>{mean, sd}(ref);
            ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
                      std::bit_cast<std::uint64_t>(want))
                << "draw " << i << ": " << got[i] << " vs " << want;
          }
          // The engine advanced exactly as the per-call loop's did.
          EXPECT_EQ(rng.uniform(), unit(ref));
        }
      }
    }
  }
}

TEST(RngBatch, NormalFillMatchesPerCallStdNormalDistribution) {
  expect_normal_fill_matches_oracle(&polar_block_scalar);
}

// Every carrier-kernel entry's polar block must give the scalar entry's
// bits (grid/simd.hpp), so each runs the same oracle grid.

class PolarBlock
    : public ::testing::TestWithParam<const grid::simd::CarrierKernels*> {};

TEST_P(PolarBlock, NormalFillMatchesPerCallStdNormalDistribution) {
  expect_normal_fill_matches_oracle(GetParam()->polar_block);
}

/// Inverse of Mt19937_64::temper, to craft the untempered word behind a
/// chosen engine output. Each xor-shift step is undone by iterating it
/// until every bit has passed through.
std::uint64_t untemper(std::uint64_t z) {
  const auto undo_right = [](std::uint64_t v, int shift, std::uint64_t mask) {
    std::uint64_t x = v;
    for (int i = 0; i < 64 / shift + 1; ++i) x = v ^ ((x >> shift) & mask);
    return x;
  };
  const auto undo_left = [](std::uint64_t v, int shift, std::uint64_t mask) {
    std::uint64_t x = v;
    for (int i = 0; i < 64 / shift + 1; ++i) x = v ^ ((x << shift) & mask);
    return x;
  };
  z = undo_right(z, 43, ~std::uint64_t{0});
  z = undo_left(z, 37, 0xfff7eee000000000ULL);
  z = undo_left(z, 17, 0x71d67fffeda60000ULL);
  return undo_right(z, 29, 0x5555555555555555ULL);
}

/// Replays fixed engine outputs to a standard distribution.
struct ReplayEngine {
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  const std::vector<std::uint64_t>* outputs;
  std::size_t pos = 0;
  result_type operator()() { return (*outputs)[pos++]; }
};

/// One block of `tempered` outputs through the entry, against the per-call
/// std::normal_distribution values of the pairs the block holds. Checks the
/// count and that nothing is written past it; returns the count.
std::size_t expect_block_matches_std(const grid::simd::CarrierKernels& k,
                              const std::vector<std::uint64_t>& tempered,
                              double mean, double sd) {
  SCOPED_TRACE(::testing::Message() << k.name << " words " << tempered.size());
  std::vector<std::uint64_t> words;
  for (const std::uint64_t t : tempered) words.push_back(untemper(t));
  // The per-call reference, with an accepted pair (x = y = 0.5) appended:
  // a call that runs past the block's words is not one of the block's.
  std::vector<std::uint64_t> outputs = tempered;
  outputs.insert(outputs.end(), 2, 0xc000000000000000ULL);
  ReplayEngine replay{&outputs};
  std::vector<double> want;
  while (replay.pos < tempered.size()) {
    const double v = std::normal_distribution<double>{mean, sd}(replay);
    if (replay.pos <= tempered.size()) want.push_back(v);
  }
  constexpr double kSentinel = -777.25;
  std::vector<double> got(tempered.size() / 2 + 4, kSentinel);
  const std::size_t n = k.polar_block(words.data(), words.size(), mean, sd, got.data());
  EXPECT_EQ(n, want.size());
  if (n != want.size()) return n;
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]),
              std::bit_cast<std::uint64_t>(want[i]))
        << "variate " << i << ": " << got[i] << " vs " << want[i];
  }
  for (std::size_t i = n; i < got.size(); ++i) {
    EXPECT_EQ(got[i], kSentinel) << "wrote element " << i;
  }
  return n;
}

TEST_P(PolarBlock, CraftedWordsHitRejectionAndClamp) {
  const grid::simd::CarrierKernels& k = *GetParam();
  for (const std::uint64_t w : {0ULL, 1ULL, 0x8000000000000000ULL, ~0ULL,
                                0x0123456789abcdefULL, 0xfedcba9876543210ULL}) {
    ASSERT_EQ(Mt19937_64::temper(untemper(w)), w) << "untemper " << w;
  }
  constexpr std::uint64_t kZero = 0x8000000000000000ULL;  // u = 1/2: coord 0
  constexpr std::uint64_t kHalf = 0xc000000000000000ULL;  // coord 0.5
  // 2^64 - 1023 and the tie 2^64 - 1024 round to 2^64 (u = 1, clamped);
  // 2^64 - 1025 rounds down to the largest u below 1.
  constexpr std::uint64_t kClamp = ~0ULL;
  constexpr std::uint64_t kClampNear = 0ULL - 1023;
  constexpr std::uint64_t kClampTie = 0ULL - 1024;
  constexpr std::uint64_t kBelowClamp = 0ULL - 1025;
  // r == 0: both coordinates 0, rejected, between accepted pairs.
  EXPECT_EQ(expect_block_matches_std(k, {kHalf, kHalf, kZero, kZero, kHalf, kZero},
                                     0.0, 1.0),
            2u);
  // The clamp on the coordinate that becomes the variate (x = 0).
  EXPECT_EQ(expect_block_matches_std(k,
                                     {kZero, kClamp, kZero, kClampNear, kZero,
                                      kClampTie, kZero, kBelowClamp},
                                     10.0, 2.0),
            4u);
  // Chunks in which every pair is rejected (r == 0 or r > 1), across full
  // vector blocks and a partial one.
  for (const std::size_t pairs : {1, 3, 4, 5, 8, 9}) {
    std::vector<std::uint64_t> tempered;
    for (std::size_t p = 0; p < pairs; ++p) {
      const std::uint64_t w = p % 2 == 0 ? kClamp : kZero;
      tempered.insert(tempered.end(), {w, w});
    }
    EXPECT_EQ(expect_block_matches_std(k, tempered, 0.0, 0.3), 0u);
  }
  // Random blocks of every length up to a full vector block and past it,
  // and a whole engine block.
  Mt19937_64 engine{0x9e3779b9ULL};
  for (const std::size_t n_words : {0, 2, 4, 6, 8, 10, 14, 16, 18, 312}) {
    std::vector<std::uint64_t> tempered(n_words);
    for (std::uint64_t& t : tempered) t = engine();
    expect_block_matches_std(k, tempered, -3.0, 0.7);
  }
}

INSTANTIATE_TEST_SUITE_P(AllImpls, PolarBlock,
                         ::testing::ValuesIn(grid::simd::available_kernels().begin(),
                                             grid::simd::available_kernels().end()));

/// Pearson chi-squared statistic of the joint distribution of interleaved
/// draws from two streams, bucketed into an 8x8 contingency table against
/// the uniform-independence expectation.
double chi_squared_interleaved(Rng a, Rng b, int n_pairs) {
  constexpr int kBins = 8;
  int counts[kBins][kBins] = {};
  for (int i = 0; i < n_pairs; ++i) {
    const int ba = std::min(kBins - 1, static_cast<int>(a.uniform() * kBins));
    const int bb = std::min(kBins - 1, static_cast<int>(b.uniform() * kBins));
    ++counts[ba][bb];
  }
  const double expect = static_cast<double>(n_pairs) / (kBins * kBins);
  double chi2 = 0.0;
  for (const auto& row : counts) {
    for (int c : row) {
      const double d = c - expect;
      chi2 += d * d / expect;
    }
  }
  return chi2;
}

TEST(Rng, SiblingStreamsAreIndependent) {
  // Adjacent fork() streams of one parent must behave as independent
  // uniform sources: chi-squared over the 8x8 joint histogram has 63
  // degrees of freedom, whose 99.9th percentile is ~103.4. The seeds are
  // fixed, so the bound is deterministic; a systematic stream correlation
  // (e.g. a weak fork mix) blows far past it.
  for (std::uint64_t parent : {1ULL, 42ULL, 0xdeadbeefULL}) {
    const Rng base{parent};
    for (std::uint64_t k : {0ULL, 1ULL, 7ULL}) {
      const double chi2 =
          chi_squared_interleaved(base.fork(k), base.fork(k + 1), 20000);
      EXPECT_LT(chi2, 103.4) << "parent " << parent << " streams " << k
                             << "," << k + 1;
    }
  }
}

TEST(Rng, SiblingStreamsAreSeriallyUncorrelated) {
  // Lag-0 Pearson correlation between the i-th draws of adjacent streams.
  const Rng base{11};
  Rng a = base.fork(3);
  Rng b = base.fork(4);
  const int n = 20000;
  double sa = 0, sb = 0, saa = 0, sbb = 0, sab = 0;
  for (int i = 0; i < n; ++i) {
    const double x = a.uniform();
    const double y = b.uniform();
    sa += x;
    sb += y;
    saa += x * x;
    sbb += y * y;
    sab += x * y;
  }
  const double cov = sab / n - (sa / n) * (sb / n);
  const double var_a = saa / n - (sa / n) * (sa / n);
  const double var_b = sbb / n - (sb / n) * (sb / n);
  const double r = cov / std::sqrt(var_a * var_b);
  // |r| for independent streams is O(1/sqrt(n)) ~ 0.007; allow 4x.
  EXPECT_LT(std::abs(r), 0.03);
}

}  // namespace
}  // namespace efd::sim
