#include "src/plc/tone_map.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace efd::plc {
namespace {

std::vector<double> flat_snr(int carriers, double snr) {
  return std::vector<double>(static_cast<std::size_t>(carriers), snr);
}

TEST(ToneMap, Eq1BleFromUniform1024Qam) {
  const PhyParams phy = PhyParams::hpav();
  const auto snr = flat_snr(phy.band.n_carriers, 40.0);
  const ToneMap tm = ToneMap::from_snr(snr, 0.0, phy, 0.0, 1);
  // B = 917 * 10 bits, R = 16/21, Tsym = 46.52 us => ~150.2 Mb/s. This is
  // the paper's "highest PLC data-rate is 150 Mbps" (§4.1).
  EXPECT_NEAR(tm.ble_mbps(), 917 * 10 * (16.0 / 21.0) / 46.52, 0.2);
  EXPECT_NEAR(tm.ble_mbps(), 150.2, 0.5);
}

TEST(ToneMap, Eq1PberrDiscountsBle) {
  const PhyParams phy = PhyParams::hpav();
  const auto snr = flat_snr(phy.band.n_carriers, 40.0);
  const ToneMap clean = ToneMap::from_snr(snr, 0.0, phy, 0.0, 1);
  const ToneMap lossy = ToneMap::from_snr(snr, 0.0, phy, 0.1, 2);
  EXPECT_NEAR(lossy.ble_mbps(), clean.ble_mbps() * 0.9, 1e-9);
  EXPECT_DOUBLE_EQ(lossy.phy_rate_mbps(), clean.phy_rate_mbps());
}

TEST(ToneMap, SinglePbSymbolRateMatchesPaper) {
  // §7.2: R1sym = 520 * 8 / Tsym ≈ 89.4 Mb/s.
  EXPECT_NEAR(PhyParams::hpav().single_pb_symbol_rate_mbps(), 89.4, 0.1);
}

TEST(ToneMap, MarginLowersOrKeepsBle) {
  const PhyParams phy = PhyParams::hpav();
  std::vector<double> snr(static_cast<std::size_t>(phy.band.n_carriers));
  for (std::size_t i = 0; i < snr.size(); ++i) {
    snr[i] = 5.0 + 30.0 * static_cast<double>(i) / snr.size();
  }
  double prev = 1e9;
  for (double margin = 0.0; margin <= 12.0; margin += 1.0) {
    const ToneMap tm = ToneMap::from_snr(snr, margin, phy, 0.0, 1);
    EXPECT_LE(tm.ble_mbps(), prev + 1e-9);
    prev = tm.ble_mbps();
  }
}

TEST(ToneMap, PerCarrierAdaptationBeatsFlatRate) {
  // The PLC advantage of §4.1: with a frequency-selective channel, loading
  // each carrier independently preserves rate on the good carriers.
  const PhyParams phy = PhyParams::hpav();
  std::vector<double> snr(static_cast<std::size_t>(phy.band.n_carriers), 35.0);
  for (std::size_t i = 0; i < snr.size(); i += 4) snr[i] = 2.0;  // deep notches
  const ToneMap tm = ToneMap::from_snr(snr, 0.0, phy, 0.0, 1);
  // Carriers in notches fall back to BPSK while others stay at 1024-QAM.
  EXPECT_GT(tm.ble_mbps(), 100.0);
  EXPECT_LT(tm.ble_mbps(), 150.0);
}

TEST(ToneMap, RoboIsSlowAndRobust) {
  const PhyParams phy = PhyParams::hpav();
  const ToneMap robo = ToneMap::robo(phy);
  EXPECT_TRUE(robo.is_robo());
  EXPECT_LT(robo.ble_mbps(), 10.0);
  EXPECT_GT(robo.ble_mbps(), 2.0);
  // Decodable at SNR levels where even BPSK data would struggle.
  const auto poor = flat_snr(phy.band.n_carriers, 1.0);
  EXPECT_LT(robo.pb_error_probability(poor), 0.05);
}

TEST(ToneMap, PbErrorZeroWithBigMarginOneWithNone) {
  const PhyParams phy = PhyParams::hpav();
  const auto snr = flat_snr(phy.band.n_carriers, 25.0);
  const ToneMap tm = ToneMap::from_snr(snr, 3.0, phy, 0.0, 1);
  EXPECT_LT(tm.pb_error_probability(snr), 0.01);
  // Channel collapses by 12 dB: the map is now hopeless.
  const auto collapsed = flat_snr(phy.band.n_carriers, 13.0);
  EXPECT_GT(tm.pb_error_probability(collapsed), 0.5);
}

TEST(ToneMap, PbErrorMonotoneInChannelQuality) {
  const PhyParams phy = PhyParams::hpav();
  const auto design = flat_snr(phy.band.n_carriers, 25.0);
  const ToneMap tm = ToneMap::from_snr(design, 2.0, phy, 0.0, 1);
  double prev = 1.0;
  for (double snr = 10.0; snr <= 30.0; snr += 1.0) {
    const double p = tm.pb_error_probability(flat_snr(phy.band.n_carriers, snr));
    EXPECT_LE(p, prev + 1e-12);
    prev = p;
  }
}

TEST(ToneMap, AllCarriersOffIsUndecodable) {
  const PhyParams phy = PhyParams::hpav();
  const auto dead = flat_snr(phy.band.n_carriers, -30.0);
  const ToneMap tm = ToneMap::from_snr(dead, 0.0, phy, 0.0, 1);
  EXPECT_DOUBLE_EQ(tm.ble_mbps(), 0.0);
  EXPECT_DOUBLE_EQ(tm.pb_error_probability(dead), 1.0);
}

TEST(ToneMap, Hpav500BandIsWider) {
  const PhyParams av500 = PhyParams::hpav500();
  const auto snr = flat_snr(av500.band.n_carriers, 40.0);
  const ToneMap tm = ToneMap::from_snr(snr, 0.0, av500, 0.0, 1);
  // 2232 carriers: the AV500 ceiling is far above AV's 150 Mb/s.
  EXPECT_GT(tm.ble_mbps(), 300.0);
}

class WaterfallSweep : public ::testing::TestWithParam<double> {};

TEST_P(WaterfallSweep, PbErrorIsAProbability) {
  const PhyParams phy = PhyParams::hpav();
  const auto design = flat_snr(phy.band.n_carriers, GetParam());
  const ToneMap tm = ToneMap::from_snr(design, 1.0, phy, 0.0, 1);
  for (double offset = -10.0; offset <= 10.0; offset += 2.5) {
    const double p = tm.pb_error_probability(
        flat_snr(phy.band.n_carriers, GetParam() + offset));
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(DesignPoints, WaterfallSweep,
                         ::testing::Values(5.0, 12.0, 18.0, 25.0, 32.0, 40.0));

}  // namespace
}  // namespace efd::plc
