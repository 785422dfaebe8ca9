#include "src/grid/simd.hpp"

#include <array>
#include <bit>
#include <cstdlib>

#include "src/grid/db_units.hpp"

namespace efd::grid::simd {

namespace {

// --- scalar entry ----------------------------------------------------------
// Operation-for-operation transcriptions of the loops these kernels replaced
// (power_grid.cpp / tone_map.cpp / channel.cpp as of PR 1): same op order,
// same libm calls, so EFD_SIMD=scalar figures are byte-identical to the
// pre-dispatch binaries and the scalar entry doubles as the bit-exact
// reference the vector entries are diffed against.

void s_db_to_linear_n(const double* db, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = db_to_linear(db[i]);
}

void s_linear_to_db_n(const double* lin, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = linear_to_db(lin[i]);
}

void s_affine_n(double add, double slope, const double* x, double* out,
                std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = add + slope * x[i];
}

void s_accumulate_notch_n(double broadband, double depth, const double* s,
                          double* acc, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double v = s[i];
    acc[i] += broadband + depth * v * v;
  }
}

void s_accumulate_scaled_n(double scale, const double* x, double* acc,
                           std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) acc[i] += scale * x[i];
}

void s_assemble_snr_n(double c, const double* a, const double* b, double* out,
                      std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = c - a[i] - b[i];
}

void s_shift_n(const double* in, double offset, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = in[i] - offset;
}

double s_sum_db_to_linear_n(const double* db, std::size_t n) {
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) sum += db_to_linear(db[i]);
  return sum;
}

double s_ber_weighted_sum_n(const InterpTableView& lut, const BitLoadingTable& t,
                            const std::uint8_t* level, const double* snr_db,
                            double gain_db, std::size_t n) {
  const double last = static_cast<double>(lut.size - 1);
  double wb = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double* row = lut.table + level[i] * lut.size;
    const double pos = (snr_db[i] + gain_db - lut.min_db) / lut.step_db;
    double v;
    // NaN lands on row[0], as the vector entries' max against 0 puts it.
    if (!(pos > 0.0)) {
      v = row[0];
    } else if (pos >= last) {
      v = row[lut.size - 1];
    } else {
      const auto idx = static_cast<std::size_t>(pos);
      const double frac = pos - static_cast<double>(idx);
      v = row[idx] + frac * (row[idx + 1] - row[idx]);
    }
    wb += v * static_cast<double>(t.bits[level[i]]);
  }
  return wb;
}

}  // namespace

namespace detail {
std::int64_t load_bits_scalar(const BitLoadingTable& t, const double* snr_db,
                              double margin_db, std::size_t n,
                              std::uint8_t* level) {
  static_assert(kBitLevels == 8, "one compare per non-off level");
  const auto& r = t.required_db;
  std::int64_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double s = snr_db[i] - margin_db;
    const int met = (s >= r[1]) + (s >= r[2]) + (s >= r[3]) + (s >= r[4]) +
                    (s >= r[5]) + (s >= r[6]) + (s >= r[7]);
    level[i] = static_cast<std::uint8_t>(met);
    total += t.bits[static_cast<std::size_t>(met)];
  }
  return total;
}

std::size_t noise_undecided_scalar(const NoiseGridView& g, const double* snr_db,
                                   const double* r, std::size_t n,
                                   std::uint32_t* idx) {
  const double last = static_cast<double>(g.cells - 1);
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    // The AVX2 entry's max/min order: NaN takes cell 0.
    double pos = (snr_db[i] - g.lo_db) * g.cells_per_db;
    pos = pos > 0.0 ? pos : 0.0;
    pos = pos < last ? pos : last;
    const std::int32_t kmax = g.kmax[static_cast<std::int32_t>(pos)];
    // r lies in (0, 1], so its biased exponent is 1023 + floor(log2 r), and
    // r >= 2^-kmax exactly when that plus kmax reaches 1023.
    const auto biased_exp =
        static_cast<std::int32_t>(std::bit_cast<std::uint64_t>(r[i]) >> 52);
    idx[count] = static_cast<std::uint32_t>(i);
    count += static_cast<std::size_t>(biased_exp + kmax < 1023);
  }
  return count;
}

}  // namespace detail

namespace {

constexpr CarrierKernels kScalar = {
    "scalar",
    &s_db_to_linear_n,
    &s_linear_to_db_n,
    &s_affine_n,
    &s_accumulate_notch_n,
    &s_accumulate_scaled_n,
    &s_assemble_snr_n,
    &s_shift_n,
    &s_sum_db_to_linear_n,
    &s_ber_weighted_sum_n,
    sim::kPolarScalar,
    &detail::load_bits_scalar,
    &detail::noise_undecided_scalar,
};

}  // namespace

const CarrierKernels& scalar_kernels() { return kScalar; }

#if defined(__x86_64__) || defined(_M_X64)
namespace detail {
// Defined in simd_avx2.cpp, the only TU compiled with -mavx2 -mfma.
const CarrierKernels* avx2_kernels_impl();
}  // namespace detail
#endif

#if defined(__aarch64__)
namespace detail {
// Defined in simd_neon.cpp; Advanced SIMD is baseline on AArch64.
const CarrierKernels* neon_kernels_impl();
}  // namespace detail
#endif

const CarrierKernels* avx2_kernels() {
#if defined(__x86_64__) || defined(_M_X64)
  static const CarrierKernels* k = []() -> const CarrierKernels* {
    if (!__builtin_cpu_supports("avx2") || !__builtin_cpu_supports("fma")) {
      return nullptr;
    }
    return detail::avx2_kernels_impl();
  }();
  return k;
#else
  return nullptr;
#endif
}

const CarrierKernels* neon_kernels() {
#if defined(__aarch64__)
  return detail::neon_kernels_impl();
#else
  return nullptr;
#endif
}

std::span<const CarrierKernels* const> available_kernels() {
  static const auto list = [] {
    std::array<const CarrierKernels*, 3> a{};
    std::size_t n = 0;
    a[n++] = &kScalar;
    if (const CarrierKernels* k = avx2_kernels()) a[n++] = k;
    if (const CarrierKernels* k = neon_kernels()) a[n++] = k;
    return std::pair{a, n};
  }();
  return {list.first.data(), list.second};
}

namespace {
/// Best available entry: the widest vector unit wins; scalar is the floor.
const CarrierKernels& best_kernels() {
  if (const CarrierKernels* k = avx2_kernels()) return *k;
  if (const CarrierKernels* k = neon_kernels()) return *k;
  return kScalar;
}
}  // namespace

const CarrierKernels& select_kernels(std::string_view want) {
  if (want == "scalar") return kScalar;
  if (want == "avx2") {
    if (const CarrierKernels* k = avx2_kernels()) return *k;
    return best_kernels();
  }
  if (want == "neon") {
    if (const CarrierKernels* k = neon_kernels()) return *k;
    return best_kernels();
  }
  // "auto", "", and anything unrecognized: take the best this machine has.
  return best_kernels();
}

int impl_index(const CarrierKernels& k) {
  if (&k == avx2_kernels()) return 1;
  if (&k == neon_kernels()) return 2;
  return 0;
}

const CarrierKernels& active_kernels() {
  static const CarrierKernels& k = []() -> const CarrierKernels& {
    const char* env = std::getenv("EFD_SIMD");
    return select_kernels(env != nullptr ? env : "auto");
  }();
  return k;
}

int active_impl_index() { return impl_index(active_kernels()); }

const char* active_impl_name() { return active_kernels().name; }

}  // namespace efd::grid::simd
