#include "src/grid/power_grid.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace efd::grid {
namespace {

sim::Time weekday_noon() { return sim::days(1) + sim::hours(12); }

/// A minimal grid: a -- j -- b with an optional appliance at j.
struct SmallGrid {
  PowerGrid grid;
  int a, j, b;

  SmallGrid() {
    a = grid.add_node("a");
    j = grid.add_node("j");
    b = grid.add_node("b");
    grid.add_cable(a, j, 10.0);
    grid.add_cable(j, b, 20.0);
  }
};

TEST(PowerGrid, ShortestPathDistances) {
  SmallGrid g;
  EXPECT_DOUBLE_EQ(g.grid.cable_distance(g.a, g.b), 30.0);
  EXPECT_DOUBLE_EQ(g.grid.cable_distance(g.b, g.a), 30.0);
  EXPECT_DOUBLE_EQ(g.grid.cable_distance(g.a, g.a), 0.0);
}

TEST(PowerGrid, DisconnectedNodesAreInfinite) {
  PowerGrid grid;
  const int a = grid.add_node("a");
  const int b = grid.add_node("b");
  EXPECT_TRUE(std::isinf(grid.cable_distance(a, b)));
  const auto att = grid.attenuation_db(a, b, CarrierBand{}, weekday_noon());
  EXPECT_GE(att[0], 150.0);  // effectively no path
}

TEST(PowerGrid, ParallelPathsTakeShorter) {
  PowerGrid grid;
  const int a = grid.add_node("a");
  const int b = grid.add_node("b");
  grid.add_cable(a, b, 50.0);
  grid.add_cable(a, b, 30.0);
  EXPECT_DOUBLE_EQ(grid.cable_distance(a, b), 30.0);
}

TEST(PowerGrid, ExtraLossAccumulatesAlongPath) {
  PowerGrid grid;
  const int a = grid.add_node("a");
  const int m = grid.add_node("m");
  const int b = grid.add_node("b");
  grid.add_cable(a, m, 10.0, 5.0);
  grid.add_cable(m, b, 10.0, 7.0);
  EXPECT_DOUBLE_EQ(grid.path_extra_loss_db(a, b), 12.0);
  EXPECT_DOUBLE_EQ(grid.path_extra_loss_db(a, m), 5.0);
}

TEST(PowerGrid, BareLongCableLosesLittle) {
  // The paper's isolated-cable experiment (§5): up to 70 m of cable alone
  // costs at most ~2 Mb/s, i.e. a few dB — multipath, not cable, dominates.
  // Compare against a 1 m cable from the same transmitter so the fixed
  // outlet-coupling term cancels.
  PowerGrid grid;
  const int a = grid.add_node("a");
  const int b = grid.add_node("b");
  const int c = grid.add_node("c");
  grid.add_cable(a, b, 70.0);
  grid.add_cable(a, c, 1.0);
  const auto far = grid.attenuation_db(a, b, CarrierBand{}, weekday_noon());
  const auto near = grid.attenuation_db(a, c, CarrierBand{}, weekday_noon());
  for (std::size_t i = 0; i < far.size(); ++i) {
    EXPECT_LT(far[i] - near[i], 5.0);
  }
}

TEST(PowerGrid, CableLossGrowsWithFrequencyAndDistance) {
  PowerGrid grid;
  const int a = grid.add_node("a");
  const int b = grid.add_node("b");
  const int c = grid.add_node("c");
  grid.add_cable(a, b, 20.0);
  grid.add_cable(b, c, 60.0);
  const CarrierBand band{};
  const auto near = grid.attenuation_db(a, b, band, weekday_noon());
  const auto far = grid.attenuation_db(a, c, band, weekday_noon());
  EXPECT_LT(near.front(), far.front());
  // Within one path, the top of the band attenuates more than the bottom.
  EXPECT_LT(far.front(), far.back());
}

TEST(PowerGrid, OnPathApplianceAddsAttenuation) {
  SmallGrid clean;
  SmallGrid loaded;
  Appliance fridge = make_appliance(ApplianceType::kFridge, loaded.j, 11);
  fridge.schedule = ActivitySchedule::always_on();  // pin for determinism
  loaded.grid.add_appliance(fridge);
  const CarrierBand band{};
  const auto att0 = clean.grid.attenuation_db(clean.a, clean.b, band, weekday_noon());
  const auto att1 = loaded.grid.attenuation_db(loaded.a, loaded.b, band, weekday_noon());
  double sum0 = 0, sum1 = 0;
  for (std::size_t i = 0; i < att0.size(); ++i) {
    sum0 += att0[i];
    sum1 += att1[i];
  }
  EXPECT_GT(sum1, sum0 + 100.0);  // clearly more loss across the band
}

TEST(PowerGrid, ApplianceNearTransmitterCreatesAsymmetry) {
  // A heavy load next to `a` hurts a->b (injection loss at a) more than
  // it hurts b->a — the §5 asymmetry mechanism.
  SmallGrid g;
  g.grid.add_appliance(make_appliance(ApplianceType::kMicrowave, g.a, 21));
  // Force it always-on for a deterministic check.
  const CarrierBand band{};
  const auto t = sim::days(1) + sim::hours(12.05);  // lunch: microwave windows
  const auto ab = g.grid.attenuation_db(g.a, g.b, band, t);
  const auto ba = g.grid.attenuation_db(g.b, g.a, band, t);
  double sab = 0, sba = 0;
  for (std::size_t i = 0; i < ab.size(); ++i) {
    sab += ab[i];
    sba += ba[i];
  }
  if (g.grid.appliance_on(0, t)) {
    EXPECT_GT(sab, sba);
  }
}

TEST(PowerGrid, NoisePsdIsBackgroundOnlyWithoutAppliances) {
  // With no loads, only the grid's background mains noise remains: a small,
  // flat, slot-dependent residual over the receiver floor.
  SmallGrid g;
  const auto noise = g.grid.noise_psd_db(g.b, CarrierBand{}, weekday_noon(), 0, 6);
  for (double v : noise) {
    EXPECT_GT(v, 0.0);
    EXPECT_LT(v, 6.0);
    EXPECT_NEAR(v, noise[0], 1e-9);  // flat across carriers
  }
  // The background component is mains-synchronous: slots differ.
  const auto other_slot =
      g.grid.noise_psd_db(g.b, CarrierBand{}, weekday_noon(), 3, 6);
  EXPECT_NE(noise[0], other_slot[0]);
}

TEST(PowerGrid, NoiseDecaysWithDistanceFromSource) {
  PowerGrid grid;
  const int a = grid.add_node("a");
  const int m = grid.add_node("m");
  const int b = grid.add_node("b");
  grid.add_cable(a, m, 5.0);
  grid.add_cable(m, b, 40.0);
  grid.add_appliance(make_appliance(ApplianceType::kLightBank, a, 31));
  const auto t = sim::days(1) + sim::hours(12);
  ASSERT_TRUE(grid.appliance_on(0, t));
  const auto near = grid.noise_psd_db(a, CarrierBand{}, t, 0, 6);
  const auto far = grid.noise_psd_db(b, CarrierBand{}, t, 0, 6);
  EXPECT_GT(near[100], far[100]);
}

TEST(PowerGrid, NoiseVariesAcrossToneMapSlots) {
  SmallGrid g;
  g.grid.add_appliance(make_appliance(ApplianceType::kLightBank, g.j, 41));
  const auto t = sim::days(1) + sim::hours(12);
  ASSERT_TRUE(g.grid.appliance_on(0, t));
  double lo = 1e9, hi = -1e9;
  for (int s = 0; s < 6; ++s) {
    const auto noise = g.grid.noise_psd_db(g.b, CarrierBand{}, t, s, 6);
    lo = std::min(lo, noise[50]);
    hi = std::max(hi, noise[50]);
  }
  // The mains-synchronous component makes slots differ (invariance scale).
  EXPECT_GT(hi - lo, 0.3);
}

// The "workspace" of these three tests is the caller-owned `out` vector the
// allocation-free forms write into.

TEST(PowerGrid, WorkspaceAttenuationIsBitIdenticalToVectorApi) {
  SmallGrid g;
  Appliance fridge = make_appliance(ApplianceType::kFridge, g.j, 81);
  fridge.schedule = ActivitySchedule::always_on();
  g.grid.add_appliance(fridge);
  const CarrierBand band{};
  const auto t = weekday_noon();
  const auto ref = g.grid.attenuation_db(g.a, g.b, band, t);

  std::vector<double> out;
  g.grid.attenuation_db(g.a, g.b, band, t, out);
  ASSERT_EQ(out.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) EXPECT_EQ(out[i], ref[i]);
}

TEST(PowerGrid, WorkspaceNoisePsdMatchesVectorApi) {
  SmallGrid g;
  Appliance lights = make_appliance(ApplianceType::kLightBank, g.j, 91);
  lights.schedule = ActivitySchedule::always_on();
  g.grid.add_appliance(lights);
  const CarrierBand band{};
  const auto t = weekday_noon();
  std::vector<double> out;
  for (int slot = 0; slot < 6; ++slot) {
    const auto ref = g.grid.noise_psd_db(g.b, band, t, slot, 6);
    g.grid.noise_psd_db(g.b, band, t, slot, 6, out);
    ASSERT_EQ(out.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_EQ(out[i], ref[i]) << "slot " << slot << " carrier " << i;
    }
  }
}

TEST(PowerGrid, WorkspaceReuseAcrossLinksStaysCorrect) {
  // One reused `out` must not leak the previous query's carriers, nor its
  // length, into the next: each query first fills it from another link on a
  // wider band.
  SmallGrid g;
  Appliance lights = make_appliance(ApplianceType::kLightBank, g.a, 95);
  lights.schedule = ActivitySchedule::always_on();
  g.grid.add_appliance(lights);
  const CarrierBand band{};
  const CarrierBand wide{1.8, 68.0, 2232};
  const auto t = weekday_noon();
  std::vector<double> out;

  g.grid.attenuation_db(g.a, g.b, wide, t, out);
  const auto att_ref = g.grid.attenuation_db(g.j, g.b, band, t);
  g.grid.attenuation_db(g.j, g.b, band, t, out);
  ASSERT_EQ(out.size(), att_ref.size());
  for (std::size_t i = 0; i < att_ref.size(); ++i) EXPECT_EQ(out[i], att_ref[i]);

  g.grid.noise_psd_db(g.a, wide, t, 2, 6, out);
  const auto noise_ref = g.grid.noise_psd_db(g.b, band, t, 2, 6);
  g.grid.noise_psd_db(g.b, band, t, 2, 6, out);
  ASSERT_EQ(out.size(), noise_ref.size());
  for (std::size_t i = 0; i < noise_ref.size(); ++i) EXPECT_EQ(out[i], noise_ref[i]);
}

TEST(PowerGrid, StateEpochChangesWithApplianceToggles) {
  SmallGrid g;
  g.grid.add_appliance(make_appliance(ApplianceType::kLightBank, g.j, 51));
  const auto on_t = sim::days(1) + sim::hours(12);
  const auto off_t = sim::days(1) + sim::hours(23);
  EXPECT_NE(g.grid.state_epoch(on_t), g.grid.state_epoch(off_t));
  EXPECT_EQ(g.grid.state_epoch(on_t), g.grid.state_epoch(on_t + sim::seconds(1)));
}

TEST(PowerGrid, AppliancesOnCountsSchedules) {
  SmallGrid g;
  g.grid.add_appliance(make_appliance(ApplianceType::kLightBank, g.j, 61));
  g.grid.add_appliance(make_appliance(ApplianceType::kPhoneCharger, g.j, 62));
  EXPECT_EQ(g.grid.appliances_on(sim::days(1) + sim::hours(12)), 2);
  EXPECT_EQ(g.grid.appliances_on(sim::days(1) + sim::hours(23)), 1);
}

TEST(PowerGrid, FastNoiseOffsetIsBoundedAndTimeVarying) {
  SmallGrid g;
  Appliance fridge = make_appliance(ApplianceType::kFridge, g.b, 71);
  fridge.schedule = ActivitySchedule::always_on();  // pin for determinism
  g.grid.add_appliance(fridge);
  const auto t0 = sim::days(1) + sim::hours(12);
  bool varied = false;
  double prev = g.grid.fast_noise_offset_db(g.b, t0);
  for (int i = 1; i < 200; ++i) {
    const double cur =
        g.grid.fast_noise_offset_db(g.b, t0 + sim::milliseconds(i * 50.0));
    EXPECT_LT(std::abs(cur), 40.0);
    if (std::abs(cur - prev) > 1e-6) varied = true;
    prev = cur;
  }
  EXPECT_TRUE(varied);
}

TEST(PowerGrid, HopsAndTapLossAffectAttenuation) {
  // Same total length, more junctions => more attenuation (tap loss).
  PowerGrid direct;
  const int da = direct.add_node("a");
  const int db = direct.add_node("b");
  direct.add_cable(da, db, 40.0);

  PowerGrid tapped;
  const int ta = tapped.add_node("a");
  const int t1 = tapped.add_node("j1");
  const int t2 = tapped.add_node("j2");
  const int tb = tapped.add_node("b");
  tapped.add_cable(ta, t1, 10.0);
  tapped.add_cable(t1, t2, 15.0);
  tapped.add_cable(t2, tb, 15.0);

  const CarrierBand band{};
  const auto a0 = direct.attenuation_db(da, db, band, weekday_noon());
  const auto a1 = tapped.attenuation_db(ta, tb, band, weekday_noon());
  EXPECT_GT(a1[100], a0[100] + 2.0);  // two taps at ~1.5 dB each
}

}  // namespace
}  // namespace efd::grid
