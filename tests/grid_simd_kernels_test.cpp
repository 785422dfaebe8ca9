// Odd-tail and dispatch-selection coverage of the batch carrier kernels
// (src/grid/simd.hpp). Every implementation the binary carries that this
// machine can run is swept over carrier counts that exercise full vector
// blocks, partial tails, and the single-element degenerate case; the
// transcendental kernels are bounded against naive double-precision
// references and the element-wise kernels must match the scalar entry
// bit for bit (the EFD_SIMD=scalar byte-stability contract).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
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
    std::vector<std::int32_t> rows(n);
    std::vector<double> bits(n);
    for (std::size_t i = 0; i < n; ++i) {
      const int m = rng.uniform_int(0, plc::kModulationCount - 1);
      rows[i] = m * lut.size;
      bits[i] = static_cast<double>(plc::kBitsPerSymbol[static_cast<std::size_t>(m)]);
    }
    double wb = -1.0, tb = -1.0;
    k.ber_weighted_sum_n(lut, rows.data(), bits.data(), snr.data(), 7.0, n, &wb,
                         &tb);
    double ref_wb = 0.0, ref_tb = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (bits[i] == 0.0) continue;
      const auto m = static_cast<plc::Modulation>(rows[i] / lut.size);
      ref_wb += plc::uncoded_ber(m, snr[i] + 7.0) * bits[i];
      ref_tb += bits[i];
    }
    EXPECT_NEAR(wb, ref_wb, 1e-9 * std::max(ref_wb, 1.0)) << k.name << " n=" << n;
    EXPECT_EQ(tb, ref_tb) << k.name << " n=" << n;
  }
}

TEST_P(KernelSweep, ToneMapPbErrorMatchesDefaultPath) {
  const CarrierKernels& k = *GetParam();
  plc::PhyParams phy;
  sim::Rng rng{0x70e1u};
  const auto n = static_cast<std::size_t>(phy.band.n_carriers);
  const std::vector<double> snr = random_db(rng, n, -15.0, 40.0);
  const plc::ToneMap tm = plc::ToneMap::from_snr(snr, 2.0, phy, 0.0, 1);
  const double via_kernel = tm.pb_error_probability(snr, phy, k);
  const double via_scalar =
      tm.pb_error_probability(snr, phy, grid::simd::scalar_kernels());
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
  const double p_k = robo.pb_error_probability(abyss, phy, k);
  const double p_s =
      robo.pb_error_probability(abyss, phy, grid::simd::scalar_kernels());
  EXPECT_EQ(p_k, p_s) << k.name << " below clamp";
  // Just above the floor: mean linear = 10^(-59/10) ~ 1.26e-6 > 1e-6, the
  // clamp must NOT engage and the combining math must agree within the
  // PB-error tolerance.
  const std::vector<double> edge(n, -59.0);
  EXPECT_NEAR(robo.pb_error_probability(edge, phy, k),
              robo.pb_error_probability(edge, phy, grid::simd::scalar_kernels()),
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

TEST(AlignedWorkspace, BuffersAre64ByteAlignedAndGrowPreservingContents) {
  grid::AlignedVec v;
  v.resize(7);
  for (std::size_t i = 0; i < 7; ++i) v[i] = static_cast<double>(i) * 1.5;
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % grid::AlignedVec::kAlign,
            0u);
  const std::size_t big = 2232;
  v.reserve(big);
  ASSERT_EQ(v.size(), 7u);
  for (std::size_t i = 0; i < 7; ++i) {
    EXPECT_EQ(v[i], static_cast<double>(i) * 1.5) << "grow lost element " << i;
  }
  v.resize(big);
  EXPECT_EQ(v.size(), big);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % grid::AlignedVec::kAlign,
            0u);
  v.assign(917, 3.25);
  EXPECT_EQ(v.size(), 917u);
  for (std::size_t i = 0; i < 917; ++i) ASSERT_EQ(v[i], 3.25);
}

TEST(AlignedWorkspace, ReserveCarriersFrontLoadsAllocations) {
  grid::CarrierWorkspace ws;
  ws.reserve_carriers(917);
  ws.att_db.resize(917);
  const double* before = ws.att_db.data();
  ws.att_db.resize(917);  // no growth, no reallocation
  EXPECT_EQ(ws.att_db.data(), before);
  EXPECT_EQ(ws.noise_db.size(), 0u) << "reserve must not change logical sizes";
  ws.noise_db.resize(917);
  EXPECT_EQ(ws.noise_db.size(), 917u);
}

TEST(AlignedWorkspace, GuardIsSequentiallyReusable) {
  grid::CarrierWorkspace ws;
  {
    grid::CarrierWorkspace::Guard g1(ws);
  }
  {
    grid::CarrierWorkspace::Guard g2(ws);  // released guard can be retaken
  }
  SUCCEED();
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
