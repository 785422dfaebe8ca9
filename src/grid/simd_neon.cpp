// NEON (AArch64 Advanced SIMD) entry of the carrier-kernel dispatch table —
// the 2-lane float64 counterpart of simd_avx2.cpp, same range reductions and
// polynomial degrees, so it inherits the same precision analysis (exp2/log2
// relative error a few 1e-16, reductions reassociated across two lanes).
// Advanced SIMD with double lanes is baseline on AArch64, so this TU needs
// no special flags and no cpuid gate; it is only added to the build on
// aarch64 targets.
#if defined(__aarch64__)

#include <arm_neon.h>

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "src/grid/db_units.hpp"
#include "src/grid/simd.hpp"

namespace efd::grid::simd {

namespace {

constexpr double kLn2 = 0.6931471805599453094172321;
constexpr double kTwoOverLn2 = 2.8853900817779268147198494;  // 2 / ln(2)

/// 2^x per lane; see simd_avx2.cpp for the derivation and error bounds.
inline float64x2_t v_exp2(float64x2_t x) {
  x = vmaxq_f64(x, vdupq_n_f64(-1000.0));
  x = vminq_f64(x, vdupq_n_f64(1000.0));
  const float64x2_t k = vrndnq_f64(x);  // round to nearest, ties to even
  const float64x2_t r = vsubq_f64(x, k);
  const float64x2_t t = vmulq_f64(r, vdupq_n_f64(kLn2));
  // exp(t) via Horner, coefficients 1/k!; vfmaq_f64(a, b, c) = a + b*c.
  float64x2_t p = vdupq_n_f64(1.0 / 479001600.0);            // 1/12!
  p = vfmaq_f64(vdupq_n_f64(1.0 / 39916800.0), p, t);        // 1/11!
  p = vfmaq_f64(vdupq_n_f64(1.0 / 3628800.0), p, t);         // 1/10!
  p = vfmaq_f64(vdupq_n_f64(1.0 / 362880.0), p, t);          // 1/9!
  p = vfmaq_f64(vdupq_n_f64(1.0 / 40320.0), p, t);           // 1/8!
  p = vfmaq_f64(vdupq_n_f64(1.0 / 5040.0), p, t);            // 1/7!
  p = vfmaq_f64(vdupq_n_f64(1.0 / 720.0), p, t);             // 1/6!
  p = vfmaq_f64(vdupq_n_f64(1.0 / 120.0), p, t);             // 1/5!
  p = vfmaq_f64(vdupq_n_f64(1.0 / 24.0), p, t);              // 1/4!
  p = vfmaq_f64(vdupq_n_f64(1.0 / 6.0), p, t);               // 1/3!
  p = vfmaq_f64(vdupq_n_f64(0.5), p, t);                     // 1/2!
  p = vfmaq_f64(vdupq_n_f64(1.0), p, t);
  p = vfmaq_f64(vdupq_n_f64(1.0), p, t);
  // 2^k through the exponent bits (k integral in [-1000, 1000]).
  const int64x2_t k64 = vcvtq_s64_f64(k);
  const int64x2_t bits = vshlq_n_s64(vaddq_s64(k64, vdupq_n_s64(1023)), 52);
  return vmulq_f64(p, vreinterpretq_f64_s64(bits));
}

/// log2(x) per lane for positive, finite, normal x; see simd_avx2.cpp.
inline float64x2_t v_log2(float64x2_t x) {
  const uint64x2_t ubits = vreinterpretq_u64_f64(x);
  const int64x2_t e64 = vsubq_s64(
      vreinterpretq_s64_u64(vshrq_n_u64(ubits, 52)), vdupq_n_s64(1023));
  float64x2_t e = vcvtq_f64_s64(e64);
  float64x2_t m = vreinterpretq_f64_u64(
      vorrq_u64(vandq_u64(ubits, vdupq_n_u64(0x000FFFFFFFFFFFFFULL)),
                vdupq_n_u64(0x3FF0000000000000ULL)));
  const uint64x2_t big = vcgeq_f64(m, vdupq_n_f64(1.4142135623730951));
  m = vbslq_f64(big, vmulq_f64(m, vdupq_n_f64(0.5)), m);
  e = vaddq_f64(e, vbslq_f64(big, vdupq_n_f64(1.0), vdupq_n_f64(0.0)));
  const float64x2_t one = vdupq_n_f64(1.0);
  const float64x2_t s = vdivq_f64(vsubq_f64(m, one), vaddq_f64(m, one));
  const float64x2_t s2 = vmulq_f64(s, s);
  float64x2_t p = vdupq_n_f64(1.0 / 19.0);
  p = vfmaq_f64(vdupq_n_f64(1.0 / 17.0), p, s2);
  p = vfmaq_f64(vdupq_n_f64(1.0 / 15.0), p, s2);
  p = vfmaq_f64(vdupq_n_f64(1.0 / 13.0), p, s2);
  p = vfmaq_f64(vdupq_n_f64(1.0 / 11.0), p, s2);
  p = vfmaq_f64(vdupq_n_f64(1.0 / 9.0), p, s2);
  p = vfmaq_f64(vdupq_n_f64(1.0 / 7.0), p, s2);
  p = vfmaq_f64(vdupq_n_f64(1.0 / 5.0), p, s2);
  p = vfmaq_f64(vdupq_n_f64(1.0 / 3.0), p, s2);
  p = vfmaq_f64(one, p, s2);
  return vfmaq_f64(e, vmulq_f64(s, p), vdupq_n_f64(kTwoOverLn2));
}

inline double hsum(float64x2_t v) {
  return vgetq_lane_f64(v, 0) + vgetq_lane_f64(v, 1);
}

// --- kernels ---------------------------------------------------------------
// Same tail policy as the AVX2 entry: transcendental/gather kernels pad the
// final odd element through the 2-lane code, element-wise kernels finish with
// an (identical) scalar op.

void n_db_to_linear_n(const double* db, double* out, std::size_t n) {
  const float64x2_t c = vdupq_n_f64(kDbToLog2);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_f64(out + i, v_exp2(vmulq_f64(vld1q_f64(db + i), c)));
  }
  if (i < n) {
    double in[2] = {db[i], 0.0};
    double tmp[2];
    vst1q_f64(tmp, v_exp2(vmulq_f64(vld1q_f64(in), c)));
    out[i] = tmp[0];
  }
}

void n_linear_to_db_n(const double* lin, double* out, std::size_t n) {
  const float64x2_t c = vdupq_n_f64(kLog2ToDb);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_f64(out + i, vmulq_f64(v_log2(vld1q_f64(lin + i)), c));
  }
  if (i < n) {
    double in[2] = {lin[i], 1.0};
    double tmp[2];
    vst1q_f64(tmp, vmulq_f64(v_log2(vld1q_f64(in)), c));
    out[i] = tmp[0];
  }
}

void n_affine_n(double add, double slope, const double* x, double* out,
                std::size_t n) {
  const float64x2_t va = vdupq_n_f64(add);
  const float64x2_t vs = vdupq_n_f64(slope);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_f64(out + i, vaddq_f64(va, vmulq_f64(vs, vld1q_f64(x + i))));
  }
  for (; i < n; ++i) out[i] = add + slope * x[i];
}

void n_accumulate_notch_n(double broadband, double depth, const double* s,
                          double* acc, std::size_t n) {
  const float64x2_t vb = vdupq_n_f64(broadband);
  const float64x2_t vd = vdupq_n_f64(depth);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t v = vld1q_f64(s + i);
    const float64x2_t term = vaddq_f64(vb, vmulq_f64(vmulq_f64(vd, v), v));
    vst1q_f64(acc + i, vaddq_f64(vld1q_f64(acc + i), term));
  }
  for (; i < n; ++i) {
    const double v = s[i];
    acc[i] += broadband + depth * v * v;
  }
}

void n_accumulate_scaled_n(double scale, const double* x, double* acc,
                           std::size_t n) {
  const float64x2_t vs = vdupq_n_f64(scale);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_f64(acc + i,
              vaddq_f64(vld1q_f64(acc + i), vmulq_f64(vs, vld1q_f64(x + i))));
  }
  for (; i < n; ++i) acc[i] += scale * x[i];
}

void n_assemble_snr_n(double c, const double* a, const double* b, double* out,
                      std::size_t n) {
  const float64x2_t vc = vdupq_n_f64(c);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_f64(out + i, vsubq_f64(vsubq_f64(vc, vld1q_f64(a + i)),
                                 vld1q_f64(b + i)));
  }
  for (; i < n; ++i) out[i] = c - a[i] - b[i];
}

void n_shift_n(const double* in, double offset, double* out, std::size_t n) {
  const float64x2_t vo = vdupq_n_f64(offset);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_f64(out + i, vsubq_f64(vld1q_f64(in + i), vo));
  }
  for (; i < n; ++i) out[i] = in[i] - offset;
}

double n_sum_db_to_linear_n(const double* db, std::size_t n) {
  const float64x2_t c = vdupq_n_f64(kDbToLog2);
  float64x2_t acc = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    acc = vaddq_f64(acc, v_exp2(vmulq_f64(vld1q_f64(db + i), c)));
  }
  double tail = 0.0;
  if (i < n) {
    double in[2] = {db[i], 0.0};
    double tmp[2];
    vst1q_f64(tmp, v_exp2(vmulq_f64(vld1q_f64(in), c)));
    tail = tmp[0];
  }
  return hsum(acc) + tail;
}

double n_ber_weighted_sum_n(const InterpTableView& lut, const BitLoadingTable& t,
                            const std::uint8_t* level, const double* snr_db,
                            double gain_db, std::size_t n) {
  const float64x2_t vgain = vdupq_n_f64(gain_db);
  const float64x2_t vmin = vdupq_n_f64(lut.min_db);
  const float64x2_t vstep = vdupq_n_f64(lut.step_db);
  const float64x2_t vzero = vdupq_n_f64(0.0);
  const float64x2_t vlast = vdupq_n_f64(static_cast<double>(lut.size - 1));
  const float64x2_t vmaxcell = vdupq_n_f64(static_cast<double>(lut.size - 2));
  float64x2_t wb = vdupq_n_f64(0.0);

  const auto block = [&](const double* snr2, const std::uint8_t* level2) {
    const float64x2_t eff = vaddq_f64(vld1q_f64(snr2), vgain);
    float64x2_t pos = vdivq_f64(vsubq_f64(eff, vmin), vstep);
    pos = vmaxnmq_f64(pos, vzero);  // NaN -> 0, like AVX2's max_pd
    pos = vminq_f64(pos, vlast);
    float64x2_t cell = vrndmq_f64(pos);  // floor
    cell = vminq_f64(cell, vmaxcell);
    const float64x2_t frac = vsubq_f64(pos, cell);
    // NEON has no gather: extract lane indices and load the cell pairs.
    const auto c0 = static_cast<std::int32_t>(vgetq_lane_f64(cell, 0));
    const auto c1 = static_cast<std::int32_t>(vgetq_lane_f64(cell, 1));
    const double* p0 = lut.table + level2[0] * lut.size + c0;
    const double* p1 = lut.table + level2[1] * lut.size + c1;
    const double lo[2] = {p0[0], p1[0]};
    const double hi[2] = {p0[1], p1[1]};
    const float64x2_t v0 = vld1q_f64(lo);
    const float64x2_t v1 = vld1q_f64(hi);
    const float64x2_t v =
        vaddq_f64(v0, vmulq_f64(frac, vsubq_f64(v1, v0)));
    const double bits2[2] = {static_cast<double>(t.bits[level2[0]]),
                             static_cast<double>(t.bits[level2[1]])};
    wb = vaddq_f64(wb, vmulq_f64(v, vld1q_f64(bits2)));
  };

  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) block(snr_db + i, level + i);
  if (i < n) {
    // Padded final element: the pad lane is level 0 (the all-zero kOff row,
    // bit weight 0), contributing an exact +0.0.
    const double snr2[2] = {snr_db[i], 0.0};
    const std::uint8_t level2[2] = {level[i], 0};
    block(snr2, level2);
  }
  return hsum(wb);
}

constexpr CarrierKernels kNeon = {
    "neon",
    &n_db_to_linear_n,
    &n_linear_to_db_n,
    &n_affine_n,
    &n_accumulate_notch_n,
    &n_accumulate_scaled_n,
    &n_assemble_snr_n,
    &n_shift_n,
    &n_sum_db_to_linear_n,
    &n_ber_weighted_sum_n,
    // No NEON bodies yet for the two exact kernels: the scalar ones, which
    // every entry must match bit for bit anyway.
    &sim::polar_block_scalar,
    &detail::load_bits_scalar,
};

}  // namespace

namespace detail {
const CarrierKernels* neon_kernels_impl() { return &kNeon; }
}  // namespace detail

}  // namespace efd::grid::simd

#endif  // __aarch64__
