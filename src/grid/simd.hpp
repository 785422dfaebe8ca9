#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

#include "src/sim/rng.hpp"

namespace efd::grid::simd {

/// View of a row-interpolated lookup table (the BER LUT of plc/modulation):
/// `rows` rows of `size` doubles, row-major, sampled every `step_db` starting
/// at `min_db`. A batch kernel gathers two neighbouring samples per element
/// and interpolates, exactly like the scalar `plc::uncoded_ber`.
struct InterpTableView {
  const double* table = nullptr;  ///< [rows][size], row-major
  std::int32_t rows = 0;
  std::int32_t size = 0;
  double min_db = 0.0;
  double step_db = 1.0;
};

/// Per-level table of plc/modulation for `load_bits_n` and
/// `ber_weighted_sum_n`, indexed by constellation level (0 is off): the SNR
/// a level needs (dB, strictly increasing from level 1; level 0's entry
/// never binds) and the bits it carries per symbol.
inline constexpr std::size_t kBitLevels = 8;
struct BitLoadingTable {
  std::array<double, kBitLevels> required_db{};
  std::array<std::int32_t, kBitLevels> bits{};
};

/// The estimator's noise-decision grid (plc::ChannelEstimator, DESIGN.md
/// §12), one per retune: `cells` cells of 1/`cells_per_db` dB each over the
/// SNR axis from `lo_db`; an SNR outside the span belongs to the end cell on
/// its side (NaN to cell 0). A carrier whose SNR lies in cell c keeps its
/// bit loading under any polar pair with r >= 2^-kmax[c]; kmax[c] < 0 holds
/// none.
struct NoiseGridView {
  const std::int32_t* kmax = nullptr;
  std::int32_t cells = 0;
  double lo_db = 0.0;
  double cells_per_db = 1.0;
};

/// One interchangeable set of *batch* carrier-domain kernels — the
/// structure-of-arrays counterpart of `efd::testkit::CarrierMathImpl`. The
/// hot per-carrier loops of the channel stack (attenuation assembly, noise
/// accumulation, dB<->linear conversion, SNR assembly, BER-LUT reduction)
/// and of the estimator's retune (its Gaussian noise draw and its bit
/// loading) route through the table returned by `active_kernels()`, so a
/// SIMD implementation is one more entry selected at runtime: no `#ifdef`
/// forks at call sites, every variant lives in every binary and can be
/// differentially checked against the others (testkit DiffRunner).
///
/// Kernel contracts (all sizes in elements, buffers may overlap only where
/// a kernel reads and writes the same array):
///  - db_to_linear_n:   out[i] = 2^(db[i] * log2(10)/10)      (= 10^(db/10))
///  - linear_to_db_n:   out[i] = log2(lin[i]) * 10*log10(2)   (lin[i] > 0,
///                      normal; the carrier power domain never underflows)
///  - affine_n:         out[i] = add + slope * x[i]
///  - accumulate_notch_n: acc[i] += broadband + depth * s[i]^2
///  - accumulate_scaled_n: acc[i] += scale * x[i]
///  - assemble_snr_n:   out[i] = c - a[i] - b[i]
///  - shift_n:          out[i] = in[i] - offset   (in == out allowed)
///  - sum_db_to_linear_n: returns sum_i 10^(db[i]/10)  (ROBO combining)
///  - ber_weighted_sum_n: per element, clamped-lerp lookup of row level[i]
///    of lut (level[i] < lut.rows) at snr[i] + gain_db; returns the sum of
///    value * t.bits[level[i]].
///  - polar:            sim::PolarKernels, the polar method's accept phase
///    (untempered engine words in, kept (y, r) pairs out) and its
///    transform (pairs in, variates out).
///  - load_bits_n:      level[i] = number of levels k >= 1 with
///    snr[i] - margin >= required_db[k] (NaN meets none); returns the sum
///    of t.bits[level[i]].
///  - noise_undecided_n: the i (ascending) whose carrier the noise may move,
///    written to idx[0, returned): with c the grid cell of snr[i] (pos =
///    (snr[i] - lo_db) * cells_per_db, raised to 0 unless above it, lowered
///    to cells - 1 unless below it, truncated), every i where
///    r[i] < 2^-kmax[c], read from r's exponent. idx holds n.
///
/// The scalar entry reproduces the PR 1 fast-path loops operation for
/// operation (bit-identical figures under EFD_SIMD=scalar). polar,
/// load_bits_n and noise_undecided_n are exact in every entry: their
/// outputs are bit-identical across entries, so the estimator's draws, its
/// bit loading and its count of exact variates never depend on EFD_SIMD.
/// The other vector kernels may reassociate sums and use FMA, and are gated
/// by the DiffRunner tolerance contract instead (DESIGN.md §11/§12).
struct CarrierKernels {
  const char* name;
  void (*db_to_linear_n)(const double* db, double* out, std::size_t n);
  void (*linear_to_db_n)(const double* lin, double* out, std::size_t n);
  void (*affine_n)(double add, double slope, const double* x, double* out,
                   std::size_t n);
  void (*accumulate_notch_n)(double broadband, double depth, const double* s,
                             double* acc, std::size_t n);
  void (*accumulate_scaled_n)(double scale, const double* x, double* acc,
                              std::size_t n);
  void (*assemble_snr_n)(double c, const double* a, const double* b, double* out,
                         std::size_t n);
  void (*shift_n)(const double* in, double offset, double* out, std::size_t n);
  double (*sum_db_to_linear_n)(const double* db, std::size_t n);
  double (*ber_weighted_sum_n)(const InterpTableView& lut,
                               const BitLoadingTable& t,
                               const std::uint8_t* level, const double* snr_db,
                               double gain_db, std::size_t n);
  sim::PolarKernels polar;
  std::int64_t (*load_bits_n)(const BitLoadingTable& t, const double* snr_db,
                              double margin_db, std::size_t n,
                              std::uint8_t* level);
  std::size_t (*noise_undecided_n)(const NoiseGridView& g, const double* snr_db,
                                   const double* r, std::size_t n,
                                   std::uint32_t* idx);
};

namespace detail {
/// The scalar entry's bit loader. The NEON entry shares it, and the AVX2
/// entry finishes its partial block with it.
std::int64_t load_bits_scalar(const BitLoadingTable& t, const double* snr_db,
                              double margin_db, std::size_t n,
                              std::uint8_t* level);
/// The scalar entry's noise decision, shared by the NEON entry.
std::size_t noise_undecided_scalar(const NoiseGridView& g, const double* snr_db,
                                   const double* r, std::size_t n,
                                   std::uint32_t* idx);
}  // namespace detail

/// The portable scalar entry (always available).
[[nodiscard]] const CarrierKernels& scalar_kernels();

/// AVX2+FMA / NEON entries: null when the binary was not compiled with the
/// implementation or the CPU lacks the feature. Exposed so tests and the
/// DiffRunner can exercise every compiled-in entry explicitly.
[[nodiscard]] const CarrierKernels* avx2_kernels();
[[nodiscard]] const CarrierKernels* neon_kernels();

/// Every entry usable on this machine (scalar first). Differential tests
/// iterate this: each entry must agree with the naive reference within the
/// DiffRunner tolerance contract.
[[nodiscard]] std::span<const CarrierKernels* const> available_kernels();

/// Pure selection logic (unit-testable): resolve an EFD_SIMD-style request
/// ("scalar" | "avx2" | "neon" | "auto" | "") against what is available.
/// Unknown names and unavailable implementations fall back to the best
/// available entry ("auto"); "scalar" always honours the request.
[[nodiscard]] const CarrierKernels& select_kernels(std::string_view want);

/// The process-wide selection: EFD_SIMD environment override resolved via
/// select_kernels() on first use, then memoized. Records the chosen entry in
/// the `carrier_math.impl` efd::obs gauge (0 scalar, 1 avx2, 2 neon) so every
/// BENCH_*.json / --metrics snapshot names the code path it measured.
[[nodiscard]] const CarrierKernels& active_kernels();

/// Stable index of an entry for metrics (0 scalar, 1 avx2, 2 neon).
[[nodiscard]] int impl_index(const CarrierKernels& k);
[[nodiscard]] int active_impl_index();
[[nodiscard]] const char* active_impl_name();

}  // namespace efd::grid::simd
