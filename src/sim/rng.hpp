#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <random>
#include <span>

namespace efd::sim {

/// The 64-bit Mersenne Twister: seeded from one word and drawn one output at
/// a time, it yields exactly std::mt19937_64's stream. Its 312-word block is
/// in view, so a batch consumer can read the untempered words ahead of the
/// position (`ahead`) and then consume the ones it used (`advance`).
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr std::size_t kWords = 312;

  explicit Mt19937_64(result_type seed) {
    x_[0] = seed;
    for (std::size_t i = 1; i < kWords; ++i) {
      x_[i] = 6364136223846793005ULL * (x_[i - 1] ^ (x_[i - 1] >> 62)) + i;
    }
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    const result_type w = ahead()[0];
    advance(1);
    return temper(w);
  }

  /// The untempered words from the position to the end of the block,
  /// regenerating the block first if it is spent; never empty.
  std::span<const result_type> ahead() {
    if (p_ == kWords) regen();
    return {x_.data() + p_, kWords - p_};
  }
  /// Consume the first `n` words of `ahead()`.
  void advance(std::size_t n) { p_ += n; }

  static result_type temper(result_type z) {
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    return z ^ (z >> 43);
  }

 private:
  static constexpr std::size_t kShift = 156;

  static result_type twist(result_type cur, result_type next, result_type far) {
    const result_type y = (cur & ~result_type{0x7fffffff}) | (next & 0x7fffffff);
    return far ^ (y >> 1) ^ ((0 - (y & 1)) & 0xb5026f5aa96619e9ULL);
  }

  void regen() {
    std::size_t k = 0;
    for (; k < kWords - kShift; ++k) x_[k] = twist(x_[k], x_[k + 1], x_[k + kShift]);
    for (; k < kWords - 1; ++k) {
      x_[k] = twist(x_[k], x_[k + 1], x_[k + kShift - kWords]);
    }
    x_[kWords - 1] = twist(x_[kWords - 1], x_[0], x_[kShift - 1]);
    p_ = 0;
  }

  // No initialiser: seeding writes every word, and Rngs are built by the
  // thousand.
  std::array<result_type, kWords> x_;
  std::size_t p_ = kWords;
};

/// Seeded random-number source. Every stochastic component takes an `Rng`
/// (or forks one) so that whole experiments are reproducible from a single
/// seed. `fork` derives an independent, deterministic substream, which keeps
/// results stable when unrelated components add or remove draws.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : seed_base_(mix(seed)), engine_(seed_base_) {}

  /// Derive an independent substream for component `stream`.
  [[nodiscard]] Rng fork(std::uint64_t stream) const {
    return Rng{seed_base_ ^ mix(0x9e3779b97f4a7c15ULL * (stream + 1))};
  }

  /// Uniform double in [0, 1).
  double uniform() { return std::uniform_real_distribution<double>{0.0, 1.0}(engine_); }

  /// Uniform double in [a, b).
  double uniform(double a, double b) {
    return std::uniform_real_distribution<double>{a, b}(engine_);
  }

  /// Uniform integer in [a, b] inclusive.
  std::int64_t uniform_int(std::int64_t a, std::int64_t b) {
    return std::uniform_int_distribution<std::int64_t>{a, b}(engine_);
  }

  /// One Gaussian draw: the value of a fresh
  /// `std::normal_distribution<double>{mean, stddev}` on this engine under
  /// libstdc++, and the engine left where that call leaves it.
  double normal(double mean, double stddev) {
    double v = 0.0;
    normal_fill({&v, 1}, mean, stddev);
    return v;
  }

  /// `out.size()` Gaussian draws at once: exactly the values, in order, of
  /// that many `normal(mean, stddev)` calls, and the engine left exactly
  /// where they would leave it. Like those calls, every polar pair yields
  /// one variate and discards the other.
  void normal_fill(std::span<double> out, double mean, double stddev);

  /// Exponential with the given mean (not rate).
  double exponential_mean(double mean) {
    return std::exponential_distribution<double>{1.0 / mean}(engine_);
  }

  bool bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return std::bernoulli_distribution{p}(engine_);
  }

  /// Log-normal such that the *linear-scale* mean is `mean` with spread
  /// factor `sigma_log` in natural-log units.
  double lognormal(double mean, double sigma_log) {
    const double mu = std::log(mean) - 0.5 * sigma_log * sigma_log;
    return std::lognormal_distribution<double>{mu, sigma_log}(engine_);
  }

 private:
  static std::uint64_t mix(std::uint64_t x) {
    // splitmix64 finalizer: decorrelates adjacent seeds.
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  std::uint64_t seed_base_ = 0;
  Mt19937_64 engine_;
};

}  // namespace efd::sim
