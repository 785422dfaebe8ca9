// Odd-tail and dispatch-selection coverage of the batch carrier kernels
// (src/grid/simd.hpp). Every implementation the binary carries that this
// machine can run is swept over carrier counts that exercise full vector
// blocks, partial tails, and the single-element degenerate case; the
// transcendental kernels are bounded against naive double-precision
// references and the element-wise kernels must match the scalar entry
// bit for bit (the EFD_SIMD=scalar byte-stability contract).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <ostream>
#include <string>
#include <vector>

#include "src/grid/simd.hpp"
#include "src/obs/obs.hpp"
#include "src/plc/modulation.hpp"
#include "src/plc/phy.hpp"
#include "src/plc/tone_map.hpp"
#include "src/sim/rng.hpp"

namespace efd::grid::simd {

// gtest lists a pointer parameter by its address, which changes from run to
// run; list the kernel by name instead. CTest's gtest discovery then names
// each case after it (AllImpls/KernelSweep.<Test>/avx2), stably.
void PrintTo(const CarrierKernels* k, std::ostream* os) { *os << k->name; }

}  // namespace efd::grid::simd

namespace efd {
namespace {

using grid::simd::CarrierKernels;

// Full AVX2 blocks (916 = 4*229), odd tails of every phase, and the HPAV /
// AV500 carrier counts themselves.
const std::size_t kSizes[] = {1, 7, 916, 917, 2232};

std::vector<double> random_db(sim::Rng& rng, std::size_t n, double lo, double hi) {
  std::vector<double> v(n);
  for (double& x : v) x = rng.uniform(lo, hi);
  return v;
}

/// Sentinel-padded output buffer: checks a kernel writes exactly n values.
struct Padded {
  static constexpr double kSentinel = -777.25;
  std::vector<double> buf;
  explicit Padded(std::size_t n) : buf(n + 8, kSentinel) {}
  double* data() { return buf.data(); }
  void expect_no_overrun(std::size_t n, const char* what) {
    for (std::size_t i = n; i < buf.size(); ++i) {
      ASSERT_EQ(buf[i], kSentinel) << what << ": wrote past element " << n;
    }
  }
};

class KernelSweep : public ::testing::TestWithParam<const CarrierKernels*> {};

TEST_P(KernelSweep, DbConversionsMatchNaiveReference) {
  const CarrierKernels& k = *GetParam();
  sim::Rng rng{0xc01u};
  for (const std::size_t n : kSizes) {
    const std::vector<double> db = random_db(rng, n, -120.0, 80.0);
    Padded out(n);
    k.db_to_linear_n(db.data(), out.data(), n);
    out.expect_no_overrun(n, "db_to_linear_n");
    for (std::size_t i = 0; i < n; ++i) {
      const double ref = std::pow(10.0, db[i] / 10.0);
      EXPECT_NEAR(out.buf[i], ref, 1e-12 * std::abs(ref))
          << k.name << " n=" << n << " i=" << i;
    }
    Padded back(n);
    k.linear_to_db_n(out.data(), back.data(), n);
    back.expect_no_overrun(n, "linear_to_db_n");
    for (std::size_t i = 0; i < n; ++i) {
      const double ref = 10.0 * std::log10(out.buf[i]);
      EXPECT_NEAR(back.buf[i], ref, 1e-12 * std::max(std::abs(ref), 1e-9))
          << k.name << " n=" << n << " i=" << i;
    }
    // lin == out (the noise body converts its accumulator in place): bitwise
    // the out-of-place result.
    Padded in_place(n);
    std::copy_n(out.buf.begin(), n, in_place.buf.begin());
    k.linear_to_db_n(in_place.data(), in_place.data(), n);
    in_place.expect_no_overrun(n, "linear_to_db_n in place");
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(in_place.buf[i], back.buf[i]) << k.name << " n=" << n << " i=" << i;
  }
}

TEST_P(KernelSweep, SumDbToLinearMatchesNaiveSum) {
  const CarrierKernels& k = *GetParam();
  sim::Rng rng{0x5e2u};
  for (const std::size_t n : kSizes) {
    const std::vector<double> db = random_db(rng, n, -40.0, 45.0);
    double ref = 0.0;
    for (double v : db) ref += std::pow(10.0, v / 10.0);
    const double sum = k.sum_db_to_linear_n(db.data(), n);
    EXPECT_NEAR(sum, ref, 1e-12 * ref) << k.name << " n=" << n;
  }
}

TEST_P(KernelSweep, ElementwiseKernelsAreBitIdenticalToScalar) {
  const CarrierKernels& k = *GetParam();
  const CarrierKernels& sc = grid::simd::scalar_kernels();
  sim::Rng rng{0xe1eu};
  for (const std::size_t n : kSizes) {
    const std::vector<double> x = random_db(rng, n, -60.0, 60.0);
    const std::vector<double> y = random_db(rng, n, -60.0, 60.0);
    Padded a(n), b(n);

    k.affine_n(1.875, -0.375, x.data(), a.data(), n);
    sc.affine_n(1.875, -0.375, x.data(), b.data(), n);
    a.expect_no_overrun(n, "affine_n");
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(a.buf[i], b.buf[i]) << k.name << " affine n=" << n << " i=" << i;

    k.accumulate_notch_n(0.5, 7.25, y.data(), a.data(), n);
    sc.accumulate_notch_n(0.5, 7.25, y.data(), b.data(), n);
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(a.buf[i], b.buf[i]) << k.name << " notch n=" << n << " i=" << i;

    k.accumulate_scaled_n(0.037, x.data(), a.data(), n);
    sc.accumulate_scaled_n(0.037, x.data(), b.data(), n);
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(a.buf[i], b.buf[i]) << k.name << " scaled n=" << n << " i=" << i;

    k.assemble_snr_n(55.0, x.data(), y.data(), a.data(), n);
    sc.assemble_snr_n(55.0, x.data(), y.data(), b.data(), n);
    a.expect_no_overrun(n, "assemble_snr_n");
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(a.buf[i], b.buf[i]) << k.name << " snr n=" << n << " i=" << i;

    // assemble_snr_n with b == out (channel.cpp assembles over the noise).
    Padded c(n);
    std::copy(y.begin(), y.end(), c.buf.begin());
    k.assemble_snr_n(55.0, x.data(), c.data(), c.data(), n);
    c.expect_no_overrun(n, "assemble_snr_n in place");
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(c.buf[i], b.buf[i]) << k.name << " snr in place n=" << n << " i=" << i;

    // shift_n with in == out (the in-place contract channel.cpp relies on).
    k.shift_n(a.data(), 2.125, a.data(), n);
    sc.shift_n(b.data(), 2.125, b.data(), n);
    a.expect_no_overrun(n, "shift_n");
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(a.buf[i], b.buf[i]) << k.name << " shift n=" << n << " i=" << i;
  }
}

TEST_P(KernelSweep, BerWeightedSumMatchesNaiveLutWalk) {
  const CarrierKernels& k = *GetParam();
  const grid::simd::InterpTableView lut = plc::ber_lut_view();
  sim::Rng rng{0xbe55u};
  for (const std::size_t n : kSizes) {
    // SNR range pushes through both clamp edges of the LUT domain.
    const std::vector<double> snr = random_db(rng, n, -95.0, 70.0);
    std::vector<std::uint8_t> levels(n);
    for (std::size_t i = 0; i < n; ++i) {
      levels[i] =
          static_cast<std::uint8_t>(rng.uniform_int(0, plc::kModulationCount - 1));
    }
    const double wb = k.ber_weighted_sum_n(lut, plc::bit_loading_table(),
                                           levels.data(), snr.data(), 7.0, n);
    double ref_wb = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double bits = plc::kBitsPerSymbol[levels[i]];
      if (bits == 0.0) continue;
      const auto m = static_cast<plc::Modulation>(levels[i]);
      ref_wb += plc::uncoded_ber(m, snr[i] + 7.0) * bits;
    }
    EXPECT_NEAR(wb, ref_wb, 1e-9 * std::max(ref_wb, 1.0)) << k.name << " n=" << n;
  }
}

TEST_P(KernelSweep, BerLookupsMapNonFiniteSnrToTheLutEdges) {
  const CarrierKernels& k = *GetParam();
  const grid::simd::InterpTableView lut = plc::ber_lut_view();
  // NaN and -inf read the first LUT cell and +inf the last, exactly as the
  // finite inputs beyond each clamp edge do.
  for (std::size_t m = 1; m < plc::kModulationCount; ++m) {
    const auto mod = static_cast<plc::Modulation>(m);
    const double first = plc::uncoded_ber(mod, -1e9);
    const double last = plc::uncoded_ber(mod, 1e9);
    EXPECT_EQ(plc::uncoded_ber(mod, NAN), first) << m;
    EXPECT_EQ(plc::uncoded_ber(mod, -INFINITY), first) << m;
    EXPECT_EQ(plc::uncoded_ber(mod, INFINITY), last) << m;
  }
  // One loaded carrier per call, in every lane of a vector block and the
  // tail; the other carriers are off (bits 0), so the sum is that carrier's
  // BER times its bits with no rounding from the reduction order.
  const std::size_t n = 9;
  for (const double x : {NAN, -INFINITY, INFINITY}) {
    const std::vector<double> snr(n, x);
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t m = 1; m < plc::kModulationCount; ++m) {
        SCOPED_TRACE(::testing::Message() << k.name << " snr " << x << " lane "
                                          << j << " modulation " << m);
        std::vector<std::uint8_t> levels(n, 0);
        levels[j] = static_cast<std::uint8_t>(m);
        const double wb = k.ber_weighted_sum_n(lut, plc::bit_loading_table(),
                                               levels.data(), snr.data(), 7.0, n);
        const double want = plc::uncoded_ber(static_cast<plc::Modulation>(m), x + 7.0) *
                            static_cast<double>(plc::kBitsPerSymbol[m]);
        if (x > 0.0) {
          EXPECT_NEAR(wb, want, 1e-12);
        } else {
          EXPECT_EQ(wb, want);
        }
      }
    }
  }
}

/// The input nearest `from` whose difference with `margin` meets `done`,
/// stepping one ulp at a time towards `to`; NaN if 64 steps do not reach it.
template <typename Done>
double step_input(double from, double to, double margin, Done done) {
  double s = from;
  for (int step = 0; step < 64 && !done(s - margin); ++step) {
    s = std::nextafter(s, to);
  }
  return done(s - margin) ? s : NAN;
}

TEST_P(KernelSweep, LoadBitsMatchesPickModulation) {
  const CarrierKernels& k = *GetParam();
  const grid::simd::BitLoadingTable& table = plc::bit_loading_table();
  sim::Rng rng{0xb175u};
  for (const double margin : {0.0, 1.5, -4.5}) {
    // The special values, and for every threshold the input that lands on
    // it after the subtraction and the nearest inputs whose differences
    // land below and above it (one ulp of the threshold where the margin's
    // rounding lets a difference land there).
    std::vector<double> edges = {NAN, INFINITY, -INFINITY, -0.0, 0.0};
    for (std::size_t m = 1; m < plc::kModulationCount; ++m) {
      const double t = plc::kRequiredSnrDb[m];
      const double on = t + margin;
      ASSERT_EQ(on - margin, t) << "margin " << margin << " threshold " << t;
      const double below =
          step_input(on, -INFINITY, margin, [t](double d) { return d < t; });
      const double above =
          step_input(on, INFINITY, margin, [t](double d) { return d > t; });
      ASSERT_FALSE(std::isnan(below) || std::isnan(above))
          << "margin " << margin << " threshold " << t;
      edges.insert(edges.end(), {below, on, above});
    }
    std::vector<std::size_t> sizes = {917, 2232};
    for (std::size_t n = 0; n <= 9; ++n) sizes.push_back(n);
    for (const std::size_t n : sizes) {
      SCOPED_TRACE(::testing::Message() << k.name << " margin " << margin
                                        << " n " << n);
      // Two edges then one random SNR: the edges, rotated by n, land in
      // every lane of a vector block and in the tails.
      std::vector<double> snr(n);
      for (std::size_t i = 0; i < n; ++i) {
        snr[i] = i % 3 < 2 ? edges[(i + n) % edges.size()]
                           : rng.uniform(-10.0, 45.0);
      }
      constexpr std::uint8_t kUnwritten = 0xA5;
      std::vector<std::uint8_t> level(n + 4, kUnwritten);
      const std::int64_t total =
          k.load_bits_n(table, snr.data(), margin, n, level.data());
      std::int64_t want_total = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const plc::Modulation mod = plc::pick_modulation(snr[i] - margin);
        want_total += plc::kBitsPerSymbol[static_cast<std::size_t>(mod)];
        ASSERT_EQ(level[i], static_cast<std::uint8_t>(mod)) << "i " << i;
      }
      EXPECT_EQ(total, want_total);
      for (std::size_t i = n; i < n + 4; ++i) {
        ASSERT_EQ(level[i], kUnwritten) << "level written past " << n;
      }
    }
  }
}

TEST_P(KernelSweep, NoiseUndecidedMatchesNaiveLookup) {
  const CarrierKernels& k = *GetParam();
  sim::Rng rng{0xdec1deu};
  // A grid of every kind of cell: none decided, a few exponents, all.
  std::vector<std::int32_t> kmax(301);
  for (std::int32_t& v : kmax) {
    const double u = rng.uniform();
    v = u < 0.2 ? -1 : u < 0.3 ? 1023 : static_cast<std::int32_t>(rng.uniform_int(0, 70));
  }
  const grid::simd::NoiseGridView g{kmax.data(), static_cast<std::int32_t>(kmax.size()),
                                    -3.25, 64.0};
  const double hi_db = g.lo_db + static_cast<double>(g.cells) / g.cells_per_db;
  // SNRs inside, on cell edges, past both ends and not finite.
  const double specials[] = {NAN, INFINITY, -INFINITY, g.lo_db, hi_db, -1e9, 1e9,
                             g.lo_db + 5.0 / 64.0, -0.0};
  std::vector<std::size_t> sizes = {917, 2232};
  for (std::size_t n = 0; n <= 9; ++n) sizes.push_back(n);
  for (const std::size_t n : sizes) {
    SCOPED_TRACE(::testing::Message() << k.name << " n " << n);
    std::vector<double> snr(n);
    std::vector<double> r(n);
    for (std::size_t i = 0; i < n; ++i) {
      snr[i] = i % 4 == 0 ? specials[(i / 4 + n) % std::size(specials)]
                          : rng.uniform(g.lo_db - 1.0, hi_db + 1.0);
      // r in (0, 1]: exact powers of two (r == 2^-kmax is decided), 1, and
      // random mantissas over a range of exponents.
      const int e = static_cast<int>(rng.uniform_int(0, 80));
      r[i] = i % 5 == 0 ? std::ldexp(1.0, -e)
                        : i % 7 == 0 ? 1.0 : std::ldexp(rng.uniform(0.5, 1.0), -e);
    }
    constexpr std::uint32_t kUnwritten = 0xA5A5A5A5u;
    std::vector<std::uint32_t> idx(n + 4, kUnwritten);
    const std::size_t count = k.noise_undecided_n(g, snr.data(), r.data(), n, idx.data());
    std::vector<std::uint32_t> want;
    for (std::size_t i = 0; i < n; ++i) {
      double pos = (snr[i] - g.lo_db) * g.cells_per_db;
      if (!(pos > 0.0)) pos = 0.0;
      if (!(pos < g.cells - 1)) pos = g.cells - 1;
      const std::int32_t cell_kmax = kmax[static_cast<std::size_t>(pos)];
      if (!(r[i] >= std::ldexp(1.0, -cell_kmax))) {
        want.push_back(static_cast<std::uint32_t>(i));
      }
    }
    ASSERT_EQ(count, want.size());
    for (std::size_t i = 0; i < count; ++i) ASSERT_EQ(idx[i], want[i]) << "i " << i;
    for (std::size_t i = n; i < n + 4; ++i) {
      ASSERT_EQ(idx[i], kUnwritten) << "idx written past " << n;
    }
  }
}

TEST_P(KernelSweep, ToneMapPbErrorMatchesDefaultPath) {
  const CarrierKernels& k = *GetParam();
  plc::PhyParams phy;
  sim::Rng rng{0x70e1u};
  const auto n = static_cast<std::size_t>(phy.band.n_carriers);
  const std::vector<double> snr = random_db(rng, n, -15.0, 40.0);
  const plc::ToneMap tm = plc::ToneMap::from_snr(snr, 2.0, phy, 0.0, 1);
  const double via_kernel = tm.pb_error_probability(snr, k);
  const double via_scalar =
      tm.pb_error_probability(snr, grid::simd::scalar_kernels());
  EXPECT_NEAR(via_kernel, via_scalar, 5e-3) << k.name;
}

TEST_P(KernelSweep, RoboMeanLinearSnrClampBoundary) {
  const CarrierKernels& k = *GetParam();
  plc::PhyParams phy;
  const auto n = static_cast<std::size_t>(phy.band.n_carriers);
  const plc::ToneMap robo = plc::ToneMap::robo(phy);
  // Deep in the clamp region: mean linear SNR far below the 1e-6 floor, so
  // every implementation must land on the identical clamped combined SNR.
  const std::vector<double> abyss(n, -200.0);
  const double p_k = robo.pb_error_probability(abyss, k);
  const double p_s =
      robo.pb_error_probability(abyss, grid::simd::scalar_kernels());
  EXPECT_EQ(p_k, p_s) << k.name << " below clamp";
  // Just above the floor: mean linear = 10^(-59/10) ~ 1.26e-6 > 1e-6, the
  // clamp must NOT engage and the combining math must agree within the
  // PB-error tolerance.
  const std::vector<double> edge(n, -59.0);
  EXPECT_NEAR(robo.pb_error_probability(edge, k),
              robo.pb_error_probability(edge, grid::simd::scalar_kernels()),
              5e-3)
      << k.name << " above clamp";
}

INSTANTIATE_TEST_SUITE_P(AllImpls, KernelSweep,
                         ::testing::ValuesIn(grid::simd::available_kernels().begin(),
                                             grid::simd::available_kernels().end()));

TEST(KernelSelection, ScalarIsAlwaysHonored) {
  EXPECT_STREQ(grid::simd::select_kernels("scalar").name, "scalar");
}

TEST(KernelSelection, AutoPicksTheBestAvailable) {
  const CarrierKernels& best = grid::simd::select_kernels("auto");
  if (grid::simd::avx2_kernels() != nullptr) {
    EXPECT_EQ(&best, grid::simd::avx2_kernels());
  } else if (grid::simd::neon_kernels() != nullptr) {
    EXPECT_EQ(&best, grid::simd::neon_kernels());
  } else {
    EXPECT_EQ(&best, &grid::simd::scalar_kernels());
  }
  // Unknown names degrade to the same choice instead of failing.
  EXPECT_EQ(&grid::simd::select_kernels("bogus-isa"), &best);
  EXPECT_EQ(&grid::simd::select_kernels(""), &best);
}

TEST(KernelSelection, ExplicitIsaFallsBackWhenUnavailable) {
  if (grid::simd::avx2_kernels() == nullptr) {
    EXPECT_NE(grid::simd::select_kernels("avx2").name, std::string("avx2"));
  } else {
    EXPECT_STREQ(grid::simd::select_kernels("avx2").name, "avx2");
  }
}

TEST(KernelSelection, AvailableListStartsWithScalar) {
  const auto list = grid::simd::available_kernels();
  ASSERT_GE(list.size(), 1u);
  EXPECT_EQ(list[0], &grid::simd::scalar_kernels());
  for (const CarrierKernels* k : list) {
    EXPECT_GE(grid::simd::impl_index(*k), 0);
    EXPECT_LE(grid::simd::impl_index(*k), 2);
  }
}

TEST(KernelSelection, ActiveKernelsRecordsImplGauge) {
  const CarrierKernels& k = grid::simd::active_kernels();
  EXPECT_EQ(grid::simd::active_impl_index(), grid::simd::impl_index(k));
  EXPECT_STREQ(grid::simd::active_impl_name(), k.name);
  const std::string snap = obs::snapshot_json();
  EXPECT_NE(snap.find("carrier_math.impl"), std::string::npos);
}

}  // namespace
}  // namespace efd
