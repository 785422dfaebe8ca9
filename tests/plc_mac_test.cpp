#include "src/plc/mac.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "src/net/meters.hpp"
#include "src/net/sources.hpp"
#include "src/plc/network.hpp"

namespace efd::plc {
namespace {

/// A small isolated PLC network on a power strip (the setup the MAC
/// literature uses for contention experiments): N stations, short cables,
/// no appliances.
struct MacFixture : ::testing::Test {
  sim::Simulator sim;
  grid::PowerGrid grid;
  std::unique_ptr<PlcChannel> channel;
  std::unique_ptr<PlcNetwork> network;

  void build(int n_stations, PlcNetwork::Config cfg = {}) {
    const int strip = grid.add_node("strip");
    channel = std::make_unique<PlcChannel>(grid, PhyParams::hpav());
    network = std::make_unique<PlcNetwork>(sim, *channel, sim::Rng{9}, cfg);
    for (int i = 0; i < n_stations; ++i) {
      const int outlet = grid.add_node("s" + std::to_string(i));
      grid.add_cable(strip, outlet, 2.0 + i);
      channel->attach_station(i, outlet);
      network->add_station(i, outlet);
    }
  }
};

TEST_F(MacFixture, DeliversPacketsEndToEnd) {
  build(2);
  net::ThroughputMeter meter;
  network->station(1).mac().set_rx_handler(
      [&](const net::Packet& p, sim::Time t) { meter.on_packet(p, t); });
  net::UdpSource::Config cfg;
  cfg.src = 0;
  cfg.dst = 1;
  cfg.rate_bps = 10e6;
  net::UdpSource source(sim, network->station(0).mac(), cfg);
  source.run(sim::Time{}, sim::seconds(2));
  sim.run_until(sim::seconds(3));
  meter.finish(sim.now());
  // 10 Mb/s offered on a clean strip link: everything arrives.
  EXPECT_NEAR(meter.average_mbps(sim::seconds(2)), 10.0, 1.0);
}

TEST_F(MacFixture, SaturationDropsExcessButDeliversCapacity) {
  build(2);
  net::ThroughputMeter meter;
  network->station(1).mac().set_rx_handler(
      [&](const net::Packet& p, sim::Time t) { meter.on_packet(p, t); });
  net::UdpSource::Config cfg;
  cfg.src = 0;
  cfg.dst = 1;
  cfg.rate_bps = 400e6;
  net::UdpSource source(sim, network->station(0).mac(), cfg);
  source.run(sim::Time{}, sim::seconds(5));
  sim.run_until(sim::seconds(5));
  meter.finish(sim.now());
  EXPECT_GT(source.dropped_packets(), 0u);  // non-blocking queue drops
  const double mbps = meter.average_mbps(sim::seconds(5));
  EXPECT_GT(mbps, 70.0);  // near the HPAV UDP ceiling
  EXPECT_LT(mbps, 95.0);
}

TEST_F(MacFixture, PacketsArriveInOrderOnOneLink) {
  build(2);
  net::OrderMeter order;
  network->station(1).mac().set_rx_handler(
      [&](const net::Packet& p, sim::Time t) { order.on_packet(p, t); });
  net::UdpSource::Config cfg;
  cfg.src = 0;
  cfg.dst = 1;
  cfg.rate_bps = 50e6;
  net::UdpSource source(sim, network->station(0).mac(), cfg);
  source.run(sim::Time{}, sim::seconds(2));
  sim.run_until(sim::seconds(3));
  EXPECT_GT(order.received(), 1000u);
  EXPECT_EQ(order.out_of_order(), 0u);
}

TEST_F(MacFixture, BroadcastReachesAllStations) {
  build(4);
  int received[4] = {0, 0, 0, 0};
  for (int i = 1; i < 4; ++i) {
    network->station(i).mac().set_rx_handler(
        [&received, i](const net::Packet&, sim::Time) { ++received[i]; });
  }
  net::ProbeSource::Config cfg;
  cfg.src = 0;
  cfg.dst = net::kBroadcast;
  cfg.interval = sim::milliseconds(100);
  cfg.packet_bytes = 1500;
  net::ProbeSource probes(sim, network->station(0).mac(), cfg);
  probes.run(sim::Time{}, sim::seconds(5));
  sim.run_until(sim::seconds(6));
  for (int i = 1; i < 4; ++i) {
    // ~50 probes; the strip is clean so virtually all arrive.
    EXPECT_GE(received[i], 48) << "station " << i;
  }
}

/// The broadcast SoF delimiters of a few probes from station 0 over a
/// two-station strip on `phy`'s band.
std::vector<SofRecord> broadcast_sofs(const PhyParams& phy) {
  sim::Simulator sim;
  grid::PowerGrid grid;
  const int strip = grid.add_node("strip");
  PlcChannel channel(grid, phy);
  PlcNetwork network(sim, channel, sim::Rng{9}, PlcNetwork::Config{});
  for (int i = 0; i < 2; ++i) {
    const int outlet = grid.add_node("s" + std::to_string(i));
    grid.add_cable(strip, outlet, 2.0 + i);
    channel.attach_station(i, outlet);
    network.add_station(i, outlet);
  }
  std::vector<SofRecord> records;
  network.medium().add_sniffer([&](const SofRecord& r) {
    if (r.broadcast) records.push_back(r);
  });
  net::ProbeSource::Config cfg;
  cfg.src = 0;
  cfg.dst = net::kBroadcast;
  cfg.interval = sim::milliseconds(100);
  cfg.packet_bytes = 1500;
  net::ProbeSource probes(sim, network.station(0).mac(), cfg);
  probes.run(sim::Time{}, sim::milliseconds(300));
  sim.run_until(sim::milliseconds(400));
  return records;
}

TEST(PlcBroadcast, EachBandBroadcastsAtItsOwnRoboBle) {
  // One process broadcasts on HPAV and then on AV500: each band's SoFs must
  // advertise that band's ROBO BLE (QPSK on 917 vs 2232 carriers, four
  // repetitions, rate 1/2), not whichever band broadcast first.
  const double hpav_robo = ToneMap::robo(PhyParams::hpav()).ble_mbps();
  const double av500_robo = ToneMap::robo(PhyParams::hpav500()).ble_mbps();
  EXPECT_NEAR(hpav_robo, 4.9, 0.1);
  EXPECT_NEAR(av500_robo, 12.0, 0.1);
  for (const auto& [phy, want] : {std::pair{PhyParams::hpav(), hpav_robo},
                                  std::pair{PhyParams::hpav500(), av500_robo}}) {
    SCOPED_TRACE(::testing::Message() << phy.band.n_carriers << " carriers");
    const std::vector<SofRecord> sofs = broadcast_sofs(phy);
    ASSERT_FALSE(sofs.empty());
    for (const SofRecord& r : sofs) {
      EXPECT_TRUE(r.robo);
      EXPECT_EQ(r.ble_mbps, want);
    }
  }
}

TEST_F(MacFixture, TwoSaturatedFlowsShareTheMedium) {
  build(4);
  net::ThroughputMeter m1, m2;
  network->station(1).mac().set_rx_handler(
      [&](const net::Packet& p, sim::Time t) { m1.on_packet(p, t); });
  network->station(3).mac().set_rx_handler(
      [&](const net::Packet& p, sim::Time t) { m2.on_packet(p, t); });
  net::UdpSource::Config c1, c2;
  c1.src = 0; c1.dst = 1; c1.rate_bps = 400e6; c1.flow_id = 1;
  c2.src = 2; c2.dst = 3; c2.rate_bps = 400e6; c2.flow_id = 2;
  net::UdpSource s1(sim, network->station(0).mac(), c1);
  net::UdpSource s2(sim, network->station(2).mac(), c2);
  s1.run(sim::Time{}, sim::seconds(5));
  s2.run(sim::Time{}, sim::seconds(5));
  sim.run_until(sim::seconds(5));
  const double t1 = m1.average_mbps(sim::seconds(5));
  const double t2 = m2.average_mbps(sim::seconds(5));
  // Both make progress; the sum is below the single-flow ceiling (collisions
  // and contention overhead), and there were actual collisions.
  EXPECT_GT(t1, 10.0);
  EXPECT_GT(t2, 10.0);
  EXPECT_LT(t1 + t2, 95.0);
  EXPECT_GT(network->medium().collisions(), 0u);
}

TEST_F(MacFixture, QueueOverflowDropsWholePackets) {
  PlcNetwork::Config cfg;
  cfg.mac.queue_limit_pbs = 9;  // room for exactly 3 full-size packets
  build(2, cfg);
  auto& mac = network->station(0).mac();
  net::Packet p;
  p.src = 0;
  p.dst = 1;
  p.size_bytes = 1470;  // 3 PBs
  for (int i = 0; i < 3; ++i) {
    p.seq = static_cast<std::uint32_t>(i);
    EXPECT_TRUE(mac.enqueue(p));
  }
  p.seq = 3;
  EXPECT_FALSE(mac.enqueue(p));
  EXPECT_EQ(mac.packets_dropped(), 1u);
}

TEST_F(MacFixture, LossyLinkDeliversEverySeqOnceWithoutPacketIds) {
  // Packets built the way the cell worlds build them: a seq, no other
  // identity. Reassembly must still keep each enqueued packet's PBs apart,
  // so that PB errors and selective retransmission never splice PBs of
  // different packets together or deliver one packet twice.
  build(2);
  network->medium().set_fault_pb_error(0.2);
  constexpr int kPackets = 200;
  std::vector<int> delivered(kPackets, 0);
  network->station(1).mac().set_rx_handler([&](const net::Packet& p, sim::Time) {
    ASSERT_LT(p.seq, static_cast<std::uint32_t>(kPackets));
    ++delivered[p.seq];
  });
  auto& mac = network->station(0).mac();
  for (int i = 0; i < kPackets; ++i) {
    net::Packet p;
    p.seq = static_cast<std::uint32_t>(i);
    p.size_bytes = 1400;  // 3 PBs
    p.src = 0;
    p.dst = 1;
    p.created = sim.now();
    p.priority = 1;
    ASSERT_TRUE(mac.enqueue(p));
  }
  sim.run_until(sim::seconds(2));
  for (int i = 0; i < kPackets; ++i) EXPECT_EQ(delivered[i], 1) << "seq " << i;
}

TEST_F(MacFixture, SnifferSeesSofRecords) {
  build(2);
  std::vector<SofRecord> records;
  network->medium().add_sniffer(
      [&](const SofRecord& r) { records.push_back(r); });
  net::UdpSource::Config cfg;
  cfg.src = 0;
  cfg.dst = 1;
  cfg.rate_bps = 400e6;
  net::UdpSource source(sim, network->station(0).mac(), cfg);
  source.run(sim::Time{}, sim::seconds(1));
  sim.run_until(sim::seconds(1));
  ASSERT_GT(records.size(), 100u);
  for (const auto& r : records) {
    EXPECT_EQ(r.src, 0);
    EXPECT_EQ(r.dst, 1);
    EXPECT_GE(r.slot, 0);
    EXPECT_LT(r.slot, 6);
    EXPECT_GT(r.n_pbs, 0);
    EXPECT_GT(r.end, r.start);
  }
  // After convergence the advertised BLEs approaches the 150 Mb/s ceiling.
  EXPECT_GT(records.back().ble_mbps, 120.0);
}

TEST_F(MacFixture, FirstFramesAreSoundRobo) {
  build(2);
  std::vector<SofRecord> records;
  network->medium().add_sniffer(
      [&](const SofRecord& r) { records.push_back(r); });
  net::UdpSource::Config cfg;
  cfg.src = 0;
  cfg.dst = 1;
  cfg.rate_bps = 400e6;
  net::UdpSource source(sim, network->station(0).mac(), cfg);
  source.run(sim::Time{}, sim::milliseconds(50));
  sim.run_until(sim::milliseconds(60));
  ASSERT_FALSE(records.empty());
  EXPECT_TRUE(records.front().robo);
  EXPECT_TRUE(records.front().sound);
}

TEST_F(MacFixture, DisableDeferralChangesBackoffDynamics) {
  // Ablation hook: with the 1901 deferral counter disabled the MAC behaves
  // 802.11-like. Under heavy contention (4 saturated senders to one
  // receiver each), collision counts should differ measurably.
  const auto run_with = [&](bool disable) {
    sim::Simulator local_sim;
    grid::PowerGrid local_grid;
    const int strip = local_grid.add_node("strip");
    PlcChannel ch(local_grid, PhyParams::hpav());
    PlcNetwork::Config cfg;
    cfg.mac.disable_deferral = disable;
    PlcNetwork net(local_sim, ch, sim::Rng{17}, cfg);
    std::vector<std::unique_ptr<net::UdpSource>> sources;
    for (int i = 0; i < 8; ++i) {
      const int outlet = local_grid.add_node("o" + std::to_string(i));
      local_grid.add_cable(strip, outlet, 2.0 + i);
      ch.attach_station(i, outlet);
      net.add_station(i, outlet);
    }
    for (int i = 0; i < 4; ++i) {
      net::UdpSource::Config scfg;
      scfg.src = i;
      scfg.dst = i + 4;
      scfg.rate_bps = 400e6;
      scfg.flow_id = i;
      sources.push_back(std::make_unique<net::UdpSource>(
          local_sim, net.station(i).mac(), scfg));
      sources.back()->run(sim::Time{}, sim::seconds(3));
    }
    local_sim.run_until(sim::seconds(3));
    return std::pair{net.medium().collisions(), net.medium().frames_sent()};
  };
  const auto [col_1901, frames_1901] = run_with(false);
  const auto [col_dcf, frames_dcf] = run_with(true);
  // The deferral counter spreads stations over larger CWs without
  // collisions, so 1901 collides less per frame than plain DCF.
  const double rate_1901 =
      static_cast<double>(col_1901) / static_cast<double>(frames_1901);
  const double rate_dcf =
      static_cast<double>(col_dcf) / static_cast<double>(frames_dcf);
  EXPECT_LT(rate_1901, rate_dcf);
}

TEST_F(MacFixture, BeaconRegionCostsAirtime) {
  // Standard-fidelity option: the CCo beacon every 40 ms shaves a few
  // percent off saturated throughput and nothing else.
  const auto run_with = [&](bool beacons) {
    sim::Simulator local_sim;
    grid::PowerGrid local_grid;
    const int strip = local_grid.add_node("strip");
    PlcChannel ch(local_grid, PhyParams::hpav());
    PlcNetwork net(local_sim, ch, sim::Rng{21}, PlcNetwork::Config{});
    for (int i = 0; i < 2; ++i) {
      const int outlet = local_grid.add_node("o" + std::to_string(i));
      local_grid.add_cable(strip, outlet, 2.0 + i);
      ch.attach_station(i, outlet);
      net.add_station(i, outlet);
    }
    if (beacons) net.medium().enable_beacons();
    net::ThroughputMeter meter;
    net.station(1).mac().set_rx_handler(
        [&](const net::Packet& p, sim::Time t) { meter.on_packet(p, t); });
    net::UdpSource::Config cfg;
    cfg.src = 0;
    cfg.dst = 1;
    cfg.rate_bps = 400e6;
    net::UdpSource source(local_sim, net.station(0).mac(), cfg);
    source.run(sim::Time{}, sim::seconds(5));
    local_sim.run_until(sim::seconds(5));
    return std::pair{meter.average_mbps(sim::seconds(5)),
                     net.medium().beacons_sent()};
  };
  const auto [t_plain, b_plain] = run_with(false);
  const auto [t_beacon, b_beacon] = run_with(true);
  EXPECT_EQ(b_plain, 0u);
  EXPECT_NEAR(static_cast<double>(b_beacon), 125.0, 2.0);  // 5 s / 40 ms
  EXPECT_LT(t_beacon, t_plain);                 // beacons cost airtime...
  EXPECT_GT(t_beacon, 0.93 * t_plain);          // ...but only ~1.5-3%%
}

}  // namespace
}  // namespace efd::plc
