// AVX2+FMA entry of the carrier-kernel dispatch table (simd.hpp). This is
// the only TU compiled with -mavx2 -mfma (plus -ffp-contract=off so the
// scalar tail expressions cannot silently fuse into FMAs and drift from the
// scalar entry); selection guards it behind __builtin_cpu_supports.
//
// Precision contract (DESIGN.md §12): the element-wise kernels (affine,
// notch, scaled accumulate, SNR assembly, shift) use explicit mul/add/sub
// intrinsics in the scalar entry's operation order, so they are bit-identical
// to it lane for lane. The transcendental kernels replace libm exp2/log2 with
// 4-lane polynomial evaluations whose relative error is below 1e-14 — two
// orders of magnitude inside the DiffRunner's 1e-12 dB contract — and the
// reductions (ROBO sum, BER-weighted sum) keep vector-lane partial
// accumulators, which reassociates the sum within the PBerr tolerance. The
// estimator's two kernels (polar block, bit loading) are exact: integer work
// and correctly rounded mul/add/sub/div/sqrt in the scalar order, no FMA, so
// they return the scalar entry's bits.
#include <immintrin.h>

#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "src/grid/db_units.hpp"
#include "src/grid/simd.hpp"

namespace efd::grid::simd {

namespace {

// --- 4-lane exp2 / log2 ----------------------------------------------------

constexpr double kLn2 = 0.6931471805599453094172321;
constexpr double kTwoOverLn2 = 2.8853900817779268147198494;  // 2 / ln(2)

/// 2^x per lane. Range-reduce x = k + r with k integral and |r| <= 0.5, then
/// e^(r ln2) by a degree-11 Taylor polynomial (truncation < 7e-15 relative on
/// the reduced range, two orders inside the 1e-12 dB contract) and scale by
/// 2^k through the exponent bits. Inputs are clamped to +-1000 so
/// out-of-domain values saturate near 2^+-1000 instead of producing garbage
/// bit patterns; the carrier dB domain is hundreds at most.
inline __m256d v_exp2(__m256d x) {
  x = _mm256_max_pd(x, _mm256_set1_pd(-1000.0));
  x = _mm256_min_pd(x, _mm256_set1_pd(1000.0));
  const __m256d k =
      _mm256_round_pd(x, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  const __m256d r = _mm256_sub_pd(x, k);  // exact: |r| <= 0.5, aligned ulps
  const __m256d t = _mm256_mul_pd(r, _mm256_set1_pd(kLn2));
  // exp(t), coefficients 1/k!, split into even/odd Horner chains in t^2 so
  // the dependency chain is half as deep as a straight Horner ladder (the
  // FMA ladder's latency, not its throughput, limits these kernels).
  const __m256d t2 = _mm256_mul_pd(t, t);
  __m256d pe = _mm256_set1_pd(1.0 / 3628800.0);                  // 1/10!
  pe = _mm256_fmadd_pd(pe, t2, _mm256_set1_pd(1.0 / 40320.0));   // 1/8!
  pe = _mm256_fmadd_pd(pe, t2, _mm256_set1_pd(1.0 / 720.0));     // 1/6!
  pe = _mm256_fmadd_pd(pe, t2, _mm256_set1_pd(1.0 / 24.0));      // 1/4!
  pe = _mm256_fmadd_pd(pe, t2, _mm256_set1_pd(0.5));             // 1/2!
  pe = _mm256_fmadd_pd(pe, t2, _mm256_set1_pd(1.0));
  __m256d po = _mm256_set1_pd(1.0 / 39916800.0);                 // 1/11!
  po = _mm256_fmadd_pd(po, t2, _mm256_set1_pd(1.0 / 362880.0));  // 1/9!
  po = _mm256_fmadd_pd(po, t2, _mm256_set1_pd(1.0 / 5040.0));    // 1/7!
  po = _mm256_fmadd_pd(po, t2, _mm256_set1_pd(1.0 / 120.0));     // 1/5!
  po = _mm256_fmadd_pd(po, t2, _mm256_set1_pd(1.0 / 6.0));       // 1/3!
  po = _mm256_fmadd_pd(po, t2, _mm256_set1_pd(1.0));
  const __m256d p = _mm256_fmadd_pd(t, po, pe);
  // 2^k: k is integral in [-1000, 1000] after the clamp, so it survives the
  // int32 round trip and (k + 1023) << 52 is a normal double's bit pattern.
  const __m128i ki = _mm256_cvtpd_epi32(k);
  const __m256i k64 = _mm256_cvtepi32_epi64(ki);
  const __m256i bits =
      _mm256_slli_epi64(_mm256_add_epi64(k64, _mm256_set1_epi64x(1023)), 52);
  return _mm256_mul_pd(p, _mm256_castsi256_pd(bits));
}

/// log2(x) per lane for positive, finite, normal x (the carrier power domain:
/// accumulated linear powers are >= 1). Split x = m * 2^e with m in [1, 2),
/// fold m into [sqrt2/2, sqrt2) so log2(m) stays centred on zero (no
/// catastrophic cancellation for x near 1), then
/// log2(m) = (2/ln2) * atanh(s) with s = (m-1)/(m+1), |s| <= 0.1716, via the
/// odd series up to s^19 (truncation < 3e-17 relative).
inline __m256d v_log2(__m256d x) {
  const __m256i bits = _mm256_castpd_si256(x);
  // Biased exponent lanes are in [1, 2046]: compress the low 32 bits of each
  // 64-bit lane and convert via cvtepi32_pd.
  const __m256i e64 = _mm256_srli_epi64(bits, 52);
  const __m256i perm = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
  const __m128i e32 =
      _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(e64, perm));
  __m256d e = _mm256_sub_pd(_mm256_cvtepi32_pd(e32), _mm256_set1_pd(1023.0));
  const __m256i mant_mask = _mm256_set1_epi64x(0x000FFFFFFFFFFFFFLL);
  const __m256i one_bits = _mm256_set1_epi64x(0x3FF0000000000000LL);
  __m256d m = _mm256_castsi256_pd(
      _mm256_or_si256(_mm256_and_si256(bits, mant_mask), one_bits));
  const __m256d sqrt2 = _mm256_set1_pd(1.4142135623730951);
  const __m256d big = _mm256_cmp_pd(m, sqrt2, _CMP_GE_OQ);
  m = _mm256_blendv_pd(m, _mm256_mul_pd(m, _mm256_set1_pd(0.5)), big);
  e = _mm256_add_pd(e, _mm256_and_pd(big, _mm256_set1_pd(1.0)));
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d s =
      _mm256_div_pd(_mm256_sub_pd(m, one), _mm256_add_pd(m, one));
  const __m256d s2 = _mm256_mul_pd(s, s);
  // Same even/odd chain split as v_exp2, here in s^4.
  const __m256d s4 = _mm256_mul_pd(s2, s2);
  __m256d pe = _mm256_set1_pd(1.0 / 17.0);
  pe = _mm256_fmadd_pd(pe, s4, _mm256_set1_pd(1.0 / 13.0));
  pe = _mm256_fmadd_pd(pe, s4, _mm256_set1_pd(1.0 / 9.0));
  pe = _mm256_fmadd_pd(pe, s4, _mm256_set1_pd(1.0 / 5.0));
  pe = _mm256_fmadd_pd(pe, s4, one);
  __m256d po = _mm256_set1_pd(1.0 / 19.0);
  po = _mm256_fmadd_pd(po, s4, _mm256_set1_pd(1.0 / 15.0));
  po = _mm256_fmadd_pd(po, s4, _mm256_set1_pd(1.0 / 11.0));
  po = _mm256_fmadd_pd(po, s4, _mm256_set1_pd(1.0 / 7.0));
  po = _mm256_fmadd_pd(po, s4, _mm256_set1_pd(1.0 / 3.0));
  const __m256d p = _mm256_fmadd_pd(s2, po, pe);
  return _mm256_fmadd_pd(_mm256_mul_pd(s, p),
                         _mm256_set1_pd(kTwoOverLn2), e);
}

/// Fixed-order horizontal sum: (l0 + l2) + (l1 + l3).
inline double hsum(__m256d v) {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d pair = _mm_add_pd(lo, hi);
  return _mm_cvtsd_f64(pair) +
         _mm_cvtsd_f64(_mm_unpackhi_pd(pair, pair));
}

// --- kernels ---------------------------------------------------------------
// Tails: the transcendental/gather kernels route the final partial block
// through the same 4-lane code on padded copies, so an element's value never
// depends on its position in the array; the element-wise kernels finish with
// a scalar loop (identical operations, identical result either way).

void a_db_to_linear_n(const double* db, double* out, std::size_t n) {
  const __m256d c = _mm256_set1_pd(kDbToLog2);
  std::size_t i = 0;
  // Two independent polynomial chains per iteration: v_exp2 is a serial
  // FMA ladder, so a single chain leaves the FMA ports half idle.
  for (; i + 8 <= n; i += 8) {
    const __m256d r0 = v_exp2(_mm256_mul_pd(_mm256_loadu_pd(db + i), c));
    const __m256d r1 = v_exp2(_mm256_mul_pd(_mm256_loadu_pd(db + i + 4), c));
    _mm256_storeu_pd(out + i, r0);
    _mm256_storeu_pd(out + i + 4, r1);
  }
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        out + i, v_exp2(_mm256_mul_pd(_mm256_loadu_pd(db + i), c)));
  }
  if (i < n) {
    alignas(32) double in[4] = {0.0, 0.0, 0.0, 0.0};
    alignas(32) double tmp[4];
    std::memcpy(in, db + i, (n - i) * sizeof(double));
    _mm256_store_pd(tmp, v_exp2(_mm256_mul_pd(_mm256_load_pd(in), c)));
    std::memcpy(out + i, tmp, (n - i) * sizeof(double));
  }
}

void a_linear_to_db_n(const double* lin, double* out, std::size_t n) {
  const __m256d c = _mm256_set1_pd(kLog2ToDb);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d r0 = _mm256_mul_pd(v_log2(_mm256_loadu_pd(lin + i)), c);
    const __m256d r1 = _mm256_mul_pd(v_log2(_mm256_loadu_pd(lin + i + 4)), c);
    _mm256_storeu_pd(out + i, r0);
    _mm256_storeu_pd(out + i + 4, r1);
  }
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(out + i,
                     _mm256_mul_pd(v_log2(_mm256_loadu_pd(lin + i)), c));
  }
  if (i < n) {
    alignas(32) double in[4] = {1.0, 1.0, 1.0, 1.0};
    alignas(32) double tmp[4];
    std::memcpy(in, lin + i, (n - i) * sizeof(double));
    _mm256_store_pd(tmp, _mm256_mul_pd(v_log2(_mm256_load_pd(in)), c));
    std::memcpy(out + i, tmp, (n - i) * sizeof(double));
  }
}

void a_affine_n(double add, double slope, const double* x, double* out,
                std::size_t n) {
  const __m256d va = _mm256_set1_pd(add);
  const __m256d vs = _mm256_set1_pd(slope);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        out + i,
        _mm256_add_pd(va, _mm256_mul_pd(vs, _mm256_loadu_pd(x + i))));
  }
  for (; i < n; ++i) out[i] = add + slope * x[i];
}

void a_accumulate_notch_n(double broadband, double depth, const double* s,
                          double* acc, std::size_t n) {
  const __m256d vb = _mm256_set1_pd(broadband);
  const __m256d vd = _mm256_set1_pd(depth);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_loadu_pd(s + i);
    const __m256d term =
        _mm256_add_pd(vb, _mm256_mul_pd(_mm256_mul_pd(vd, v), v));
    _mm256_storeu_pd(acc + i, _mm256_add_pd(_mm256_loadu_pd(acc + i), term));
  }
  for (; i < n; ++i) {
    const double v = s[i];
    acc[i] += broadband + depth * v * v;
  }
}

void a_accumulate_scaled_n(double scale, const double* x, double* acc,
                           std::size_t n) {
  const __m256d vs = _mm256_set1_pd(scale);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d term = _mm256_mul_pd(vs, _mm256_loadu_pd(x + i));
    _mm256_storeu_pd(acc + i, _mm256_add_pd(_mm256_loadu_pd(acc + i), term));
  }
  for (; i < n; ++i) acc[i] += scale * x[i];
}

void a_assemble_snr_n(double c, const double* a, const double* b, double* out,
                      std::size_t n) {
  const __m256d vc = _mm256_set1_pd(c);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        out + i,
        _mm256_sub_pd(_mm256_sub_pd(vc, _mm256_loadu_pd(a + i)),
                      _mm256_loadu_pd(b + i)));
  }
  for (; i < n; ++i) out[i] = c - a[i] - b[i];
}

void a_shift_n(const double* in, double offset, double* out, std::size_t n) {
  const __m256d vo = _mm256_set1_pd(offset);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(out + i, _mm256_sub_pd(_mm256_loadu_pd(in + i), vo));
  }
  for (; i < n; ++i) out[i] = in[i] - offset;
}

double a_sum_db_to_linear_n(const double* db, std::size_t n) {
  const __m256d c = _mm256_set1_pd(kDbToLog2);
  __m256d acc = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  __m256d acc2 = _mm256_setzero_pd();
  __m256d acc3 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc = _mm256_add_pd(acc,
                        v_exp2(_mm256_mul_pd(_mm256_loadu_pd(db + i), c)));
    acc1 = _mm256_add_pd(
        acc1, v_exp2(_mm256_mul_pd(_mm256_loadu_pd(db + i + 4), c)));
    acc2 = _mm256_add_pd(
        acc2, v_exp2(_mm256_mul_pd(_mm256_loadu_pd(db + i + 8), c)));
    acc3 = _mm256_add_pd(
        acc3, v_exp2(_mm256_mul_pd(_mm256_loadu_pd(db + i + 12), c)));
  }
  acc = _mm256_add_pd(_mm256_add_pd(acc, acc1), _mm256_add_pd(acc2, acc3));
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_add_pd(acc,
                        v_exp2(_mm256_mul_pd(_mm256_loadu_pd(db + i), c)));
  }
  double tail = 0.0;
  if (i < n) {
    alignas(32) double in[4] = {0.0, 0.0, 0.0, 0.0};
    alignas(32) double tmp[4];
    std::memcpy(in, db + i, (n - i) * sizeof(double));
    _mm256_store_pd(tmp, v_exp2(_mm256_mul_pd(_mm256_load_pd(in), c)));
    for (std::size_t j = 0; j < n - i; ++j) tail += tmp[j];
  }
  return hsum(acc) + tail;
}

double a_ber_weighted_sum_n(const InterpTableView& lut, const BitLoadingTable& t,
                            const std::uint8_t* level, const double* snr_db,
                            double gain_db, std::size_t n) {
  const __m256d vgain = _mm256_set1_pd(gain_db);
  const __m256d vmin = _mm256_set1_pd(lut.min_db);
  // Multiplying by the reciprocal step instead of dividing can move pos by
  // an ulp; a flipped cell at a boundary changes the interpolated BER by at
  // most one cell's curvature, far inside the PBerr tolerance.
  const __m256d vinvstep = _mm256_set1_pd(1.0 / lut.step_db);
  const __m256d vzero = _mm256_setzero_pd();
  const __m256d vlast = _mm256_set1_pd(static_cast<double>(lut.size - 1));
  // Clamping the cell index to size-2 makes the pos >= last case read the
  // last cell with frac 1.0 instead of gathering one past the row's end.
  const __m256d vmaxcell = _mm256_set1_pd(static_cast<double>(lut.size - 2));
  const __m128i vrow_len = _mm_set1_epi32(lut.size);
  const __m256i bits_by_level =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(t.bits.data()));
  __m256d wb = _mm256_setzero_pd();

  const auto block = [&](const double* snr4, const std::uint8_t* level4) {
    const __m256d eff = _mm256_add_pd(_mm256_loadu_pd(snr4), vgain);
    __m256d pos = _mm256_mul_pd(_mm256_sub_pd(eff, vmin), vinvstep);
    pos = _mm256_max_pd(pos, vzero);
    pos = _mm256_min_pd(pos, vlast);
    __m256d cell = _mm256_floor_pd(pos);
    cell = _mm256_min_pd(cell, vmaxcell);
    const __m256d frac = _mm256_sub_pd(pos, cell);
    const __m128i idx = _mm256_cvtpd_epi32(cell);
    // Four levels widened to 32-bit lanes: the row is level * row length,
    // the bit weight bits[level].
    std::int32_t packed;
    std::memcpy(&packed, level4, sizeof(packed));
    const __m128i lv = _mm_cvtepu8_epi32(_mm_cvtsi32_si128(packed));
    const __m128i base = _mm_add_epi32(_mm_mullo_epi32(lv, vrow_len), idx);
    const __m256d b = _mm256_cvtepi32_pd(_mm256_castsi256_si128(
        _mm256_permutevar8x32_epi32(bits_by_level, _mm256_castsi128_si256(lv))));
    // Each lane needs the adjacent pair table[k], table[k+1] (k <= row end
    // minus one after the size-2 clamp), so four 128-bit pair loads plus
    // unpacks are cheaper than two hardware gathers on every AVX2 core.
    alignas(16) std::int32_t k4[4];
    _mm_store_si128(reinterpret_cast<__m128i*>(k4), base);
    const __m128d p0 = _mm_loadu_pd(lut.table + k4[0]);
    const __m128d p1 = _mm_loadu_pd(lut.table + k4[1]);
    const __m128d p2 = _mm_loadu_pd(lut.table + k4[2]);
    const __m128d p3 = _mm_loadu_pd(lut.table + k4[3]);
    const __m256d v0 = _mm256_set_m128d(_mm_unpacklo_pd(p2, p3),
                                        _mm_unpacklo_pd(p0, p1));
    const __m256d v1 = _mm256_set_m128d(_mm_unpackhi_pd(p2, p3),
                                        _mm_unpackhi_pd(p0, p1));
    const __m256d v =
        _mm256_add_pd(v0, _mm256_mul_pd(frac, _mm256_sub_pd(v1, v0)));
    wb = _mm256_add_pd(wb, _mm256_mul_pd(v, b));
  };

  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) block(snr_db + i, level + i);
  if (i < n) {
    // Padded final block: pad lanes are level 0 (off, bit weight 0), so
    // they contribute an exact +0.0.
    alignas(32) double snr4[4] = {0.0, 0.0, 0.0, 0.0};
    std::uint8_t level4[4] = {0, 0, 0, 0};
    std::memcpy(snr4, snr_db + i, (n - i) * sizeof(double));
    std::memcpy(level4, level + i, n - i);
    block(snr4, level4);
  }
  return hsum(wb);
}

// --- exact kernels ---------------------------------------------------------

inline __m256i splat(std::uint64_t v) {
  return _mm256_set1_epi64x(static_cast<long long>(v));
}

/// Mt19937_64::temper on 4 words.
inline __m256i v_temper(__m256i z) {
  z = _mm256_xor_si256(
      z, _mm256_and_si256(_mm256_srli_epi64(z, 29), splat(0x5555555555555555ULL)));
  z = _mm256_xor_si256(
      z, _mm256_and_si256(_mm256_slli_epi64(z, 17), splat(0x71d67fffeda60000ULL)));
  z = _mm256_xor_si256(
      z, _mm256_and_si256(_mm256_slli_epi64(z, 37), splat(0xfff7eee000000000ULL)));
  return _mm256_xor_si256(z, _mm256_srli_epi64(z, 43));
}

/// rng.cpp's polar_coord on 4 untempered words: 2u - 1 with u the canonical
/// double of the tempered word. Each 32-bit half converts exactly as
/// (2^52 + half) - 2^52, hi * 2^32 + lo rounds once, and u >= 1 clamps below 1.
inline __m256d v_polar_coord(__m256i word) {
  const __m256i w = v_temper(word);
  const __m256i magic = splat(0x4330000000000000ULL);  // the bits of 2^52
  const __m256d two52 = _mm256_set1_pd(0x1p52);
  const __m256d hi = _mm256_sub_pd(
      _mm256_castsi256_pd(_mm256_or_si256(_mm256_srli_epi64(w, 32), magic)), two52);
  const __m256d lo = _mm256_sub_pd(
      _mm256_castsi256_pd(_mm256_or_si256(_mm256_and_si256(w, splat(0xffffffffULL)),
                                          magic)),
      two52);
  __m256d u = _mm256_mul_pd(
      _mm256_add_pd(_mm256_mul_pd(hi, _mm256_set1_pd(0x1p32)), lo),
      _mm256_set1_pd(0x1p-64));
  u = _mm256_min_pd(u, _mm256_set1_pd(0x1.fffffffffffffp-1));
  return _mm256_sub_pd(_mm256_mul_pd(_mm256_set1_pd(2.0), u),
                       _mm256_set1_pd(1.0));
}

/// Left-packing permutations of 4 double lanes by accept mask, as 32-bit
/// lane indices for permutevar8x32, and each mask's accepted count.
struct CompactTable {
  alignas(32) std::int32_t idx[16][8];
  std::uint8_t count[16];
};

constexpr CompactTable make_compact_table() {
  CompactTable t{};
  for (int m = 0; m < 16; ++m) {
    int k = 0;
    for (int j = 0; j < 4; ++j) {
      if ((m >> j) & 1) {
        t.idx[m][2 * k] = 2 * j;
        t.idx[m][2 * k + 1] = 2 * j + 1;
        ++k;
      }
    }
    t.count[m] = static_cast<std::uint8_t>(k);
    for (; k < 4; ++k) {
      t.idx[m][2 * k] = 0;
      t.idx[m][2 * k + 1] = 1;
    }
  }
  return t;
}

constexpr CompactTable kCompact = make_compact_table();

inline __m256d permute_lanes(__m256d v, __m256i idx) {
  return _mm256_castsi256_pd(
      _mm256_permutevar8x32_epi32(_mm256_castpd_si256(v), idx));
}

std::size_t a_polar_block(const std::uint64_t* words, std::size_t n_words,
                          double mean, double stddev, double* y) {
  constexpr std::size_t kPairs = sim::Mt19937_64::kWords / 2;
  assert(n_words % 2 == 0 && n_words <= sim::Mt19937_64::kWords);
  // Accepted pairs' y and r, packed. Each pack stores a whole vector at the
  // accepted count, hence 4 lanes of slack. Written before read.
  alignas(32) double ys[kPairs + 4];
  alignas(32) double r2[kPairs + 4];
  alignas(32) double log_r[kPairs];
  std::size_t have = 0;
  // Four pairs: x0 y0 x1 y1 | x2 y2 x3 y3. Pairs outside `live_mask` are
  // padding and never accepted.
  const auto pack = [&](const std::uint64_t* w8, int live_mask) {
    const __m256d c0 =
        v_polar_coord(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(w8)));
    const __m256d c1 = v_polar_coord(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w8 + 4)));
    // unpacklo/hi give x0 x2 x1 x3 and y0 y2 y1 y3; swap the middle lanes.
    const __m256d x = _mm256_permute4x64_pd(_mm256_unpacklo_pd(c0, c1), 0xD8);
    const __m256d yv = _mm256_permute4x64_pd(_mm256_unpackhi_pd(c0, c1), 0xD8);
    const __m256d r = _mm256_add_pd(_mm256_mul_pd(x, x), _mm256_mul_pd(yv, yv));
    // Kept unless r > 1 or r == 0 (r is never NaN).
    const __m256d ok =
        _mm256_and_pd(_mm256_cmp_pd(r, _mm256_set1_pd(1.0), _CMP_LE_OQ),
                      _mm256_cmp_pd(r, _mm256_setzero_pd(), _CMP_NEQ_OQ));
    const int mask = _mm256_movemask_pd(ok) & live_mask;
    const __m256i perm =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(kCompact.idx[mask]));
    _mm256_storeu_pd(ys + have, permute_lanes(yv, perm));
    _mm256_storeu_pd(r2 + have, permute_lanes(r, perm));
    have += kCompact.count[mask];
  };
  const std::size_t n_pairs = n_words / 2;
  std::size_t j = 0;
  for (; j + 4 <= n_pairs; j += 4) pack(words + 2 * j, 0xF);
  if (j < n_pairs) {
    alignas(32) std::uint64_t w8[8] = {};
    std::memcpy(w8, words + 2 * j, (n_words - 2 * j) * sizeof(std::uint64_t));
    pack(w8, (1 << (n_pairs - j)) - 1);
  }
  // libm's log, one call per pair: a vector log would round differently.
  for (std::size_t k = 0; k < have; ++k) log_r[k] = std::log(r2[k]);
  const __m256d vsd = _mm256_set1_pd(stddev);
  const __m256d vmean = _mm256_set1_pd(mean);
  std::size_t k = 0;
  for (; k + 4 <= have; k += 4) {
    const __m256d r = _mm256_load_pd(r2 + k);
    const __m256d mult = _mm256_sqrt_pd(_mm256_div_pd(
        _mm256_mul_pd(_mm256_set1_pd(-2.0), _mm256_load_pd(log_r + k)), r));
    _mm256_storeu_pd(
        y + k,
        _mm256_add_pd(_mm256_mul_pd(_mm256_mul_pd(_mm256_load_pd(ys + k), mult),
                                    vsd),
                      vmean));
  }
  for (; k < have; ++k) {
    const double mult = std::sqrt(-2 * log_r[k] / r2[k]);
    y[k] = (ys[k] * mult) * stddev + mean;
  }
  return have;
}

std::int64_t a_load_bits_n(const BitLoadingTable& t, const double* snr_db,
                           double margin_db, std::size_t n, std::uint8_t* level) {
  const __m256d vmargin = _mm256_set1_pd(margin_db);
  __m256d req[kBitLevels - 1];
  for (std::size_t k = 1; k < kBitLevels; ++k) {
    req[k - 1] = _mm256_set1_pd(t.required_db[k]);
  }
  const __m256i bits_by_level =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(t.bits.data()));
  // The low 32 bits of each 64-bit count, gathered into the low half.
  const __m256i low_words = _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);
  // Byte 0 of each 32-bit lane, gathered into the low 4 bytes.
  const __m128i low_bytes =
      _mm_setr_epi8(0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1);
  __m256i total = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d s = _mm256_sub_pd(_mm256_loadu_pd(snr_db + i), vmargin);
    const auto ge = [&](std::size_t k) {
      return _mm256_castpd_si256(_mm256_cmp_pd(s, req[k], _CMP_GE_OQ));
    };
    // Each met threshold's all-ones mask is -1, so the count is minus their
    // sum, written out as a tree: a loop over the seven compares is not
    // unrolled at -O2 and costs a third of the kernel.
    const __m256i minus_met = _mm256_add_epi64(
        _mm256_add_epi64(_mm256_add_epi64(ge(0), ge(1)),
                         _mm256_add_epi64(ge(2), ge(3))),
        _mm256_add_epi64(_mm256_add_epi64(ge(4), ge(5)), ge(6)));
    const __m256i met = _mm256_sub_epi64(_mm256_setzero_si256(), minus_met);
    const __m256i lv = _mm256_permutevar8x32_epi32(met, low_words);
    const __m128i b4 =
        _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(bits_by_level, lv));
    const std::int32_t packed = _mm_cvtsi128_si32(
        _mm_shuffle_epi8(_mm256_castsi256_si128(lv), low_bytes));
    std::memcpy(level + i, &packed, sizeof(packed));
    total = _mm256_add_epi64(total, _mm256_cvtepi32_epi64(b4));
  }
  alignas(32) std::int64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), total);
  return lanes[0] + lanes[1] + lanes[2] + lanes[3] +
         detail::load_bits_scalar(t, snr_db + i, margin_db, n - i, level + i);
}

constexpr CarrierKernels kAvx2 = {
    "avx2",
    &a_db_to_linear_n,
    &a_linear_to_db_n,
    &a_affine_n,
    &a_accumulate_notch_n,
    &a_accumulate_scaled_n,
    &a_assemble_snr_n,
    &a_shift_n,
    &a_sum_db_to_linear_n,
    &a_ber_weighted_sum_n,
    &a_polar_block,
    &a_load_bits_n,
};

}  // namespace

namespace detail {
const CarrierKernels* avx2_kernels_impl() { return &kAvx2; }
}  // namespace detail

}  // namespace efd::grid::simd
