// IEEE 1901 channel-access priority classes (CA0..CA3): the priority-
// resolution slots let delay-sensitive traffic pre-empt bulk transfers.
#include <gtest/gtest.h>

#include "src/net/meters.hpp"
#include "src/net/sources.hpp"
#include "src/plc/network.hpp"

namespace efd::plc {
namespace {

struct PriorityFixture : ::testing::Test {
  sim::Simulator sim;
  grid::PowerGrid grid;
  std::unique_ptr<PlcChannel> channel;
  std::unique_ptr<PlcNetwork> network;

  void build(int n_stations) {
    const int strip = grid.add_node("strip");
    channel = std::make_unique<PlcChannel>(grid, PhyParams::hpav());
    network = std::make_unique<PlcNetwork>(sim, *channel, sim::Rng{9},
                                           PlcNetwork::Config{});
    for (int i = 0; i < n_stations; ++i) {
      const int outlet = grid.add_node("s" + std::to_string(i));
      grid.add_cable(strip, outlet, 2.0 + i);
      channel->attach_station(i, outlet);
      network->add_station(i, outlet);
    }
  }
};

TEST_F(PriorityFixture, HighPriorityPreemptsBulkTraffic) {
  build(4);
  net::ThroughputMeter bulk_meter, voice_meter;
  net::JitterMeter voice_jitter;
  network->station(1).mac().set_rx_handler(
      [&](const net::Packet& p, sim::Time t) { bulk_meter.on_packet(p, t); });
  network->station(3).mac().set_rx_handler([&](const net::Packet& p, sim::Time t) {
    voice_meter.on_packet(p, t);
    voice_jitter.on_packet(p, t);
  });

  net::UdpSource::Config bulk_cfg;
  bulk_cfg.src = 0;
  bulk_cfg.dst = 1;
  bulk_cfg.rate_bps = 400e6;
  bulk_cfg.priority = 1;  // CA1 best effort
  net::UdpSource bulk(sim, network->station(0).mac(), bulk_cfg);

  net::UdpSource::Config voice_cfg;
  voice_cfg.src = 2;
  voice_cfg.dst = 3;
  voice_cfg.rate_bps = 2e6;
  voice_cfg.packet_bytes = 400;
  voice_cfg.priority = 3;  // CA3 voice
  net::UdpSource voice(sim, network->station(2).mac(), voice_cfg);

  bulk.run(sim::Time{}, sim::seconds(5));
  voice.run(sim::Time{}, sim::seconds(5));
  sim.run_until(sim::seconds(5));
  voice_meter.finish(sim.now());
  bulk_meter.finish(sim.now());

  // The 2 Mb/s CA3 stream rides through essentially unscathed.
  EXPECT_NEAR(voice_meter.average_mbps(sim::seconds(5)), 2.0, 0.2);
  // The bulk flow still gets the bulk of the airtime.
  EXPECT_GT(bulk_meter.average_mbps(sim::seconds(5)), 50.0);
  // Voice jitter stays within one bulk-frame time (~3 ms).
  EXPECT_LT(voice_jitter.mean_jitter_ms(), 3.0);
}

TEST_F(PriorityFixture, EqualPrioritiesShareAirtime) {
  build(4);
  net::ThroughputMeter m1, m2;
  network->station(1).mac().set_rx_handler(
      [&](const net::Packet& p, sim::Time t) { m1.on_packet(p, t); });
  network->station(3).mac().set_rx_handler(
      [&](const net::Packet& p, sim::Time t) { m2.on_packet(p, t); });
  net::UdpSource::Config c1, c2;
  c1.src = 0; c1.dst = 1; c1.rate_bps = 400e6; c1.priority = 2;
  c2.src = 2; c2.dst = 3; c2.rate_bps = 400e6; c2.priority = 2;
  net::UdpSource s1(sim, network->station(0).mac(), c1);
  net::UdpSource s2(sim, network->station(2).mac(), c2);
  s1.run(sim::Time{}, sim::seconds(5));
  s2.run(sim::Time{}, sim::seconds(5));
  sim.run_until(sim::seconds(5));
  const double t1 = m1.average_mbps(sim::seconds(5));
  const double t2 = m2.average_mbps(sim::seconds(5));
  // Jain fairness for two flows stays high.
  const double jain = (t1 + t2) * (t1 + t2) / (2.0 * (t1 * t1 + t2 * t2));
  EXPECT_GT(jain, 0.9);
}

TEST_F(PriorityFixture, HigherClassStarvesLowerUnderSaturation) {
  build(4);
  net::ThroughputMeter high_meter, low_meter;
  network->station(1).mac().set_rx_handler(
      [&](const net::Packet& p, sim::Time t) { high_meter.on_packet(p, t); });
  network->station(3).mac().set_rx_handler(
      [&](const net::Packet& p, sim::Time t) { low_meter.on_packet(p, t); });
  net::UdpSource::Config hi, lo;
  hi.src = 0; hi.dst = 1; hi.rate_bps = 400e6; hi.priority = 2;
  lo.src = 2; lo.dst = 3; lo.rate_bps = 400e6; lo.priority = 1;
  net::UdpSource sh(sim, network->station(0).mac(), hi);
  net::UdpSource sl(sim, network->station(2).mac(), lo);
  sh.run(sim::Time{}, sim::seconds(5));
  sl.run(sim::Time{}, sim::seconds(5));
  sim.run_until(sim::seconds(5));
  // Strict priority: the CA2 flow takes virtually all airtime (this is why
  // 1901 maps only delay-critical traffic to CA2/CA3).
  EXPECT_GT(high_meter.average_mbps(sim::seconds(5)),
            20.0 * std::max(0.5, low_meter.average_mbps(sim::seconds(5))));
}

TEST_F(PriorityFixture, CurrentPriorityTracksQueueHead) {
  build(2);
  auto& mac = network->station(0).mac();
  EXPECT_EQ(mac.current_priority(), 0);  // empty queue
  net::Packet p;
  p.src = 0;
  p.dst = 1;
  p.size_bytes = 400;
  p.priority = 3;
  mac.enqueue(p);
  EXPECT_EQ(mac.current_priority(), 3);
}

}  // namespace
}  // namespace efd::plc
