#include "src/plc/modulation.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <limits>

namespace efd::plc {
namespace {

constexpr Modulation kLadder[] = {
    Modulation::kOff,   Modulation::kBpsk,   Modulation::kQpsk,
    Modulation::kQam8,  Modulation::kQam16,  Modulation::kQam64,
    Modulation::kQam256, Modulation::kQam1024,
};

TEST(Modulation, BitsPerSymbolLadder) {
  EXPECT_EQ(bits_per_symbol(Modulation::kOff), 0);
  EXPECT_EQ(bits_per_symbol(Modulation::kBpsk), 1);
  EXPECT_EQ(bits_per_symbol(Modulation::kQpsk), 2);
  EXPECT_EQ(bits_per_symbol(Modulation::kQam8), 3);
  EXPECT_EQ(bits_per_symbol(Modulation::kQam16), 4);
  EXPECT_EQ(bits_per_symbol(Modulation::kQam64), 6);
  EXPECT_EQ(bits_per_symbol(Modulation::kQam256), 8);
  EXPECT_EQ(bits_per_symbol(Modulation::kQam1024), 10);
}

TEST(Modulation, ThresholdsAreMonotoneInBits) {
  for (std::size_t i = 2; i < std::size(kLadder); ++i) {
    EXPECT_LT(required_snr_db(kLadder[i - 1]), required_snr_db(kLadder[i]));
  }
}

TEST(Modulation, PickAtExactThreshold) {
  for (std::size_t i = 1; i < std::size(kLadder); ++i) {
    EXPECT_EQ(pick_modulation(required_snr_db(kLadder[i])), kLadder[i]);
  }
}

TEST(Modulation, PickBelowBpskIsOff) {
  EXPECT_EQ(pick_modulation(-20.0), Modulation::kOff);
  EXPECT_EQ(pick_modulation(required_snr_db(Modulation::kBpsk) - 0.1),
            Modulation::kOff);
}

TEST(Modulation, PickVeryHighSnrIsMaxConstellation) {
  EXPECT_EQ(pick_modulation(60.0), Modulation::kQam1024);
}

/// The top-down search pick_modulation replaced, kept as its oracle: the
/// largest constellation whose threshold is met, else kOff.
Modulation pick_top_down(double snr_db) {
  static constexpr Modulation kTopDown[] = {
      Modulation::kQam1024, Modulation::kQam256, Modulation::kQam64,
      Modulation::kQam16,   Modulation::kQam8,   Modulation::kQpsk,
      Modulation::kBpsk,
  };
  for (Modulation m : kTopDown) {
    if (snr_db >= required_snr_db(m)) return m;
  }
  return Modulation::kOff;
}

TEST(Modulation, PickMatchesTopDownAtEveryThresholdEdge) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (std::size_t i = 1; i < std::size(kLadder); ++i) {
    const double t = required_snr_db(kLadder[i]);
    for (double snr : {std::nextafter(t, -kInf), t, std::nextafter(t, kInf)}) {
      EXPECT_EQ(pick_modulation(snr), pick_top_down(snr))
          << to_string(kLadder[i]) << " edge, snr " << snr;
    }
  }
}

TEST(Modulation, PickMatchesTopDownAtSpecialValues) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (double snr : {0.0, -0.0, kInf, -kInf}) {
    EXPECT_EQ(pick_modulation(snr), pick_top_down(snr)) << snr;
  }
  EXPECT_EQ(pick_modulation(kInf), Modulation::kQam1024);
  EXPECT_EQ(pick_modulation(-kInf), Modulation::kOff);
  EXPECT_EQ(pick_modulation(std::numeric_limits<double>::quiet_NaN()),
            Modulation::kOff);
  EXPECT_EQ(pick_top_down(std::numeric_limits<double>::quiet_NaN()),
            Modulation::kOff);
}

TEST(Modulation, PickMatchesTopDownOnDenseSweep) {
  // 0.001 dB steps over [-100, 100] dB, computed from an integer index so
  // the grid does not drift.
  for (int k = -100000; k <= 100000; ++k) {
    const double snr = k * 1e-3;
    ASSERT_EQ(pick_modulation(snr), pick_top_down(snr)) << snr << " dB";
  }
}

class PickSweep : public ::testing::TestWithParam<double> {};

TEST_P(PickSweep, PickedModulationRespectsThresholdAndIsMaximal) {
  const double snr = GetParam();
  const Modulation m = pick_modulation(snr);
  if (m != Modulation::kOff) {
    EXPECT_GE(snr, required_snr_db(m));
  }
  // No higher constellation would also satisfy the threshold.
  for (Modulation other : kLadder) {
    if (bits_per_symbol(other) > bits_per_symbol(m)) {
      EXPECT_LT(snr, required_snr_db(other));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SnrGrid, PickSweep,
                         ::testing::Range(-10.0, 45.0, 1.37));

TEST(Modulation, BerDecreasesWithSnr) {
  for (Modulation m : kLadder) {
    if (m == Modulation::kOff) continue;
    double prev = 1.0;
    for (double snr = -5.0; snr <= 45.0; snr += 2.0) {
      const double ber = uncoded_ber(m, snr);
      EXPECT_LE(ber, prev + 1e-12);
      EXPECT_GE(ber, 0.0);
      EXPECT_LE(ber, 1.0);
      prev = ber;
    }
  }
}

TEST(Modulation, HigherOrderHasHigherBerAtSameSnr) {
  const double snr = 15.0;
  EXPECT_LT(uncoded_ber(Modulation::kQpsk, snr),
            uncoded_ber(Modulation::kQam64, snr));
  EXPECT_LT(uncoded_ber(Modulation::kQam64, snr),
            uncoded_ber(Modulation::kQam1024, snr));
}

TEST(Modulation, OffCarrierHasNoErrors) {
  EXPECT_DOUBLE_EQ(uncoded_ber(Modulation::kOff, -100.0), 0.0);
}

TEST(Modulation, LutMatchesExactWithin1e4Everywhere) {
  // The LUT-backed fast path must track the closed form within 1e-4
  // absolute over the whole operating range, including beyond the table
  // ends where it clamps (the BER curve is flat there).
  for (Modulation m : kLadder) {
    for (double snr = -85.0; snr <= 65.0; snr += 0.01) {
      ASSERT_NEAR(uncoded_ber(m, snr), uncoded_ber_exact(m, snr), 1e-4)
          << to_string(m) << " at " << snr << " dB";
    }
  }
}

TEST(Modulation, LutIsExactAtExtremes) {
  for (Modulation m : kLadder) {
    if (m == Modulation::kOff) continue;
    // Deep noise: the LUT clamps at its -80 dB end, where the curve has
    // already flattened onto the 0.5-ish error floor — the clamp error is
    // what the -80 dB table floor was sized for.
    EXPECT_NEAR(uncoded_ber(m, -200.0), uncoded_ber_exact(m, -200.0), 1e-4);
    // High SNR: both sides are (denormal-level) zero.
    EXPECT_NEAR(uncoded_ber(m, 100.0), 0.0, 1e-12);
  }
}

TEST(Modulation, ToStringIsTotal) {
  for (Modulation m : kLadder) EXPECT_NE(to_string(m), "unknown");
}

}  // namespace
}  // namespace efd::plc
