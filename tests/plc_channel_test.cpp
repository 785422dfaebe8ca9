#include "src/plc/channel.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>

#include "alloc_count.hpp"
#include "src/grid/appliance.hpp"

namespace efd::plc {
namespace {

struct ChannelFixture : ::testing::Test {
  grid::PowerGrid grid;
  int na = 0, nj = 0, nb = 0;
  PlcChannel channel{grid, PhyParams::hpav()};

  void SetUp() override {
    na = grid.add_node("a");
    nj = grid.add_node("j");
    nb = grid.add_node("b");
    grid.add_cable(na, nj, 10.0);
    grid.add_cable(nj, nb, 15.0);
    grid.add_appliance(grid::make_appliance(grid::ApplianceType::kFridge, nj, 5));
    channel.attach_station(0, na);
    channel.attach_station(1, nb);
  }

  static sim::Time noon() { return sim::days(1) + sim::hours(12); }
};

TEST_F(ChannelFixture, OutletMapping) {
  EXPECT_EQ(channel.outlet(0), na);
  EXPECT_EQ(channel.outlet(1), nb);
}

TEST_F(ChannelFixture, SlotAtCyclesThroughHalfMainsPeriod) {
  // 50 Hz mains: the half cycle is 10 ms, so 6 slots of ~1.67 ms each.
  EXPECT_EQ(channel.slot_at(sim::Time{}), 0);
  EXPECT_EQ(channel.slot_at(sim::milliseconds(1.0)), 0);
  EXPECT_EQ(channel.slot_at(sim::milliseconds(2.0)), 1);
  EXPECT_EQ(channel.slot_at(sim::milliseconds(9.9)), 5);
  EXPECT_EQ(channel.slot_at(sim::milliseconds(10.1)), 0);  // next half cycle
}

TEST_F(ChannelFixture, SlotAtNeverExceedsSlotCount) {
  for (int i = 0; i < 2000; ++i) {
    const int slot = channel.slot_at(sim::microseconds(i * 7.3));
    EXPECT_GE(slot, 0);
    EXPECT_LT(slot, channel.phy().tone_map_slots);
  }
}

TEST_F(ChannelFixture, SnrVectorHasCarrierCount) {
  const auto snr = channel.snr_db(0, 1, 0, noon());
  EXPECT_EQ(static_cast<int>(snr.size()), channel.phy().band.n_carriers);
}

TEST_F(ChannelFixture, StaticSnrIsCachedWithinEpoch) {
  const auto& v1 = channel.static_snr_db(0, 1, 0, noon());
  const double first = v1[10];
  const auto& v2 = channel.static_snr_db(0, 1, 0, noon() + sim::milliseconds(1));
  EXPECT_DOUBLE_EQ(v2[10], first);  // same epoch: cache hit, same values
}

TEST_F(ChannelFixture, CacheInvalidatesAcrossEpochChange) {
  // Find two instants with different appliance state epochs (fridge duty
  // cycle toggles within ~20 min).
  const auto t0 = noon();
  sim::Time t1 = t0;
  for (int i = 1; i < 600; ++i) {
    t1 = t0 + sim::seconds(i * 10.0);
    if (grid.state_epoch(t1) != grid.state_epoch(t0)) break;
  }
  ASSERT_NE(grid.state_epoch(t0), grid.state_epoch(t1));
  const double before = channel.static_snr_db(0, 1, 0, t0)[200];
  const double after = channel.static_snr_db(0, 1, 0, t1)[200];
  EXPECT_NE(before, after);
}

TEST_F(ChannelFixture, SnrDiffersAcrossSlots) {
  const auto t = noon();
  if (!grid.appliance_on(0, t)) GTEST_SKIP();
  double lo = 1e9, hi = -1e9;
  for (int s = 0; s < 6; ++s) {
    const double m = channel.mean_snr_db(0, 1, s, t);
    lo = std::min(lo, m);
    hi = std::max(hi, m);
  }
  EXPECT_GT(hi - lo, 0.1);  // invariance-scale structure exists
}

TEST_F(ChannelFixture, PbErrorMemoIsConsistent) {
  const auto t = noon();
  const auto snr = channel.snr_db(0, 1, 0, t);
  const ToneMap tm = ToneMap::from_snr(snr, 2.0, channel.phy(), 0.0, 7);
  const double p1 = channel.pb_error_probability(tm, 0, 1, 0, t);
  const double p2 = channel.pb_error_probability(tm, 0, 1, 0, t);
  EXPECT_DOUBLE_EQ(p1, p2);
  EXPECT_GE(p1, 0.0);
  EXPECT_LE(p1, 1.0);
}

TEST_F(ChannelFixture, RoboHasLowerErrorThanAggressiveMap) {
  const auto t = noon();
  const auto snr = channel.snr_db(0, 1, 0, t);
  const ToneMap aggressive = ToneMap::from_snr(snr, -6.0, channel.phy(), 0.0, 8);
  const ToneMap& robo = channel.robo();
  EXPECT_LE(channel.pb_error_probability(robo, 0, 1, 0, t),
            channel.pb_error_probability(aggressive, 0, 1, 0, t));
}

TEST_F(ChannelFixture, CableDistanceMatchesGrid) {
  EXPECT_DOUBLE_EQ(channel.cable_distance(0, 1), 25.0);
}

TEST_F(ChannelFixture, MeanSnrIsTheMeanOfSnrDbOnBothBands) {
  PlcChannel av500{grid, PhyParams::hpav500()};
  av500.attach_station(0, na);
  av500.attach_station(1, nb);
  for (const PlcChannel* ch : {&channel, &av500}) {
    for (int slot = 0; slot < ch->phy().tone_map_slots; ++slot) {
      for (const double ms : {0.0, 3.3, 250.0}) {
        const sim::Time t = noon() + sim::milliseconds(ms);
        for (const auto& [tx, rx] : {std::pair{0, 1}, std::pair{1, 0}}) {
          const auto snr = ch->snr_db(tx, rx, slot, t);
          double sum = 0.0;
          for (const double v : snr) sum += v;
          EXPECT_EQ(ch->mean_snr_db(tx, rx, slot, t),
                    sum / static_cast<double>(snr.size()))
              << ch->phy().band.n_carriers << " carriers, slot " << slot << ", "
              << ms << " ms, " << tx << "->" << rx;
        }
      }
    }
  }
}

TEST_F(ChannelFixture, WarmMeanSnrAllocatesNothing) {
  const auto t = noon();
  // The first call computes into scratch, the second keeps the vector, the
  // third registers the cache-hit counter.
  const double first = channel.mean_snr_db(0, 1, 2, t);
  (void)channel.mean_snr_db(0, 1, 2, t);
  (void)channel.mean_snr_db(0, 1, 2, t);
  efd::testsupport::AllocationWindow window;
  const double warm = channel.mean_snr_db(0, 1, 2, t);
  EXPECT_EQ(window.count(), 0u) << window.bytes() << " bytes allocated";
  EXPECT_EQ(warm, first);
}

TEST(PlcChannel, ScalarQueryStampsTheFillTime) {
  grid::PowerGrid grid;
  const int a = grid.add_node("a");
  const int j = grid.add_node("j");
  const int b = grid.add_node("b");
  grid.add_cable(a, j, 10.0);
  grid.add_cable(j, b, 15.0);
  grid.add_appliance(grid::make_appliance(grid::ApplianceType::kFridge, j, 5));
  const PhyParams phy = PhyParams::hpav();
  PlcChannel scalar_first{grid, phy};
  PlcChannel vector_at_t0{grid, phy};
  PlcChannel vector_at_t1{grid, phy};
  for (PlcChannel* ch : {&scalar_first, &vector_at_t0, &vector_at_t1}) {
    ch->attach_station(0, a);
    ch->attach_station(1, b);
  }
  // Two instants of one epoch: the cache serves both, but the slow drift
  // term differs between them.
  const sim::Time t0 = sim::days(1) + sim::hours(12);
  const sim::Time t1 = t0 + sim::seconds(30.0);
  ASSERT_EQ(grid.state_epoch(t0), grid.state_epoch(t1));
  const auto same = [](const std::vector<double>& x, const std::vector<double>& y) {
    return x.size() == y.size() &&
           std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
  };

  // A scalar query at t0 stamps the entry, so the vector built at t1 holds
  // the values at t0.
  (void)scalar_first.mean_snr_db(0, 1, 0, t0);
  const std::vector<double> late = scalar_first.static_snr_db(0, 1, 0, t1);
  EXPECT_TRUE(same(late, vector_at_t0.static_snr_db(0, 1, 0, t0)));
  EXPECT_FALSE(same(late, vector_at_t1.static_snr_db(0, 1, 0, t1)));

  // Keeping every slot releases the link's attenuation; each slot still
  // reads it as stamped at the link's first touch.
  for (int slot = 1; slot < phy.tone_map_slots; ++slot) {
    EXPECT_TRUE(same(scalar_first.static_snr_db(0, 1, slot, t1),
                     vector_at_t0.static_snr_db(0, 1, slot, t0)))
        << "slot " << slot;
  }
  for (int slot = 0; slot < phy.tone_map_slots; ++slot) {
    EXPECT_EQ(scalar_first.mean_snr_db(0, 1, slot, t1),
              vector_at_t0.mean_snr_db(0, 1, slot, t1))
        << "slot " << slot << " after the release";
  }
}

TEST(PlcChannel, FirstScalarQueryKeepsNoVector) {
  // A star of outlets gives many distinct links.
  grid::PowerGrid grid;
  const int hub = grid.add_node("hub");
  constexpr int kStations = 9;
  PlcChannel channel{grid, PhyParams::hpav()};
  for (int s = 0; s < kStations; ++s) {
    const int o = grid.add_node("o" + std::to_string(s));
    grid.add_cable(hub, o, 5.0 + s);
    channel.attach_station(s, o);
  }
  grid.add_appliance(grid::make_appliance(grid::ApplianceType::kFridge, hub, 5));
  const sim::Time t = sim::days(1) + sim::hours(12);
  const std::uint64_t vector_bytes =
      static_cast<std::uint64_t>(channel.phy().band.n_carriers) * sizeof(double);

  // Warm the scratch, the grid's tables and the counters.
  (void)channel.mean_snr_db(0, 1, 0, t);
  int queried = 0;
  for (int tx = 0; tx < kStations && queried < 50; ++tx) {
    for (int rx = 0; rx < kStations && queried < 50; ++rx) {
      if (tx == rx || (tx == 0 && rx == 1)) continue;
      efd::testsupport::AllocationWindow window;
      (void)channel.mean_snr_db(tx, rx, 0, t);
      EXPECT_LT(window.bytes(), vector_bytes) << tx << "->" << rx;
      ++queried;
    }
  }
  ASSERT_EQ(queried, 50);

  // On a fresh link, the second scalar query keeps the vector; once the
  // hit counter is registered, reading it allocates nothing.
  const double first = channel.mean_snr_db(8, 7, 0, t);
  double second = 0.0;
  {
    efd::testsupport::AllocationWindow window;
    second = channel.mean_snr_db(8, 7, 0, t);
    EXPECT_GE(window.bytes(), vector_bytes);
  }
  (void)channel.mean_snr_db(8, 7, 0, t);
  efd::testsupport::AllocationWindow window;
  const double warm = channel.mean_snr_db(8, 7, 0, t);
  EXPECT_EQ(window.count(), 0u) << window.bytes() << " bytes allocated";
  EXPECT_EQ(second, first);
  EXPECT_EQ(warm, first);
}

TEST(PlcChannel, FastOffsetMemoMatchesGrid) {
  grid::PowerGrid grid;
  const int a = grid.add_node("a");
  const int j = grid.add_node("j");
  const int b = grid.add_node("b");
  grid.add_cable(a, j, 10.0);
  grid.add_cable(j, b, 15.0);
  grid.add_appliance(grid::make_appliance(grid::ApplianceType::kFridge, j, 5));
  grid.add_appliance(grid::make_appliance(grid::ApplianceType::kMicrowave, b, 9));
  PlcChannel channel{grid, PhyParams::hpav()};
  channel.attach_station(0, a);
  channel.attach_station(1, b);
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const auto expect_offset = [&](net::StationId s, sim::Time t) {
    EXPECT_EQ(bits(channel.fast_offset_db(s, t)),
              bits(grid.fast_noise_offset_db(channel.outlet(s), t)))
        << "station " << s << " at " << t.ns() << " ns";
  };

  const sim::Time t0 = sim::days(1) + sim::hours(12);
  const ToneMap& robo = channel.robo();
  // Repeated, alternating and revisited instants, both link directions,
  // with the SNR and PBerr paths (which read the offset themselves) in
  // between.
  const double ms[] = {0.0, 0.0, 1.0, 0.0, 10.0, 10.0, 3.3, 1.0, 250.0, 0.0};
  for (int i = 0; i < 10; ++i) {
    const sim::Time t = t0 + sim::milliseconds(ms[i]);
    const net::StationId rx = i % 3 == 0 ? 0 : 1;
    const net::StationId tx = 1 - rx;
    const int slot = channel.slot_at(t);
    expect_offset(rx, t);
    expect_offset(tx, t);
    (void)channel.pb_error_probability(robo, tx, rx, slot, t);
    expect_offset(tx, t);
    const auto snr = channel.snr_db(tx, rx, slot, t);
    const auto& stat = channel.static_snr_db(tx, rx, slot, t);
    const double off = grid.fast_noise_offset_db(channel.outlet(rx), t);
    EXPECT_EQ(bits(snr[17]), bits(stat[17] - off)) << "step " << i;
    expect_offset(rx, t);
  }

  // Re-attaching a station to another outlet at the same instant must not
  // serve the old outlet's offset.
  const sim::Time t = t0 + sim::milliseconds(10.0);
  ASSERT_NE(bits(grid.fast_noise_offset_db(b, t)),
            bits(grid.fast_noise_offset_db(j, t)));
  expect_offset(1, t);
  channel.attach_station(1, j);
  expect_offset(1, t);
  channel.attach_station(1, b);
  expect_offset(1, t);
}

}  // namespace
}  // namespace efd::plc
