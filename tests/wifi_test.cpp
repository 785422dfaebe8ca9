#include "src/wifi/network.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/net/meters.hpp"
#include "src/net/sources.hpp"
#include "src/obs/obs.hpp"

namespace efd::wifi {
namespace {

TEST(Mcs, RateLadderIsMonotonePerStreamGroup) {
  for (int i = 1; i < 8; ++i) {
    EXPECT_GT(Mcs::rate_mbps(i), Mcs::rate_mbps(i - 1));
    EXPECT_GT(Mcs::rate_mbps(i + 8), Mcs::rate_mbps(i + 7));
  }
}

TEST(Mcs, MaxRateIs130AsInPaper) {
  EXPECT_DOUBLE_EQ(Mcs::rate_mbps(15), 130.0);
  EXPECT_EQ(Mcs::streams(15), 2);
  EXPECT_EQ(Mcs::streams(7), 1);
}

TEST(Mcs, PickIsMaximalRateUnderThreshold) {
  for (double snr = -5.0; snr < 45.0; snr += 0.5) {
    const int m = Mcs::pick(snr);
    if (m < 0) {
      EXPECT_LT(snr, Mcs::required_snr_db(0));
      continue;
    }
    EXPECT_GE(snr, Mcs::required_snr_db(m));
    for (int other = 0; other < Mcs::kCount; ++other) {
      if (Mcs::rate_mbps(other) > Mcs::rate_mbps(m)) {
        EXPECT_LT(snr, Mcs::required_snr_db(other));
      }
    }
  }
}

TEST(Mcs, ErrorWaterfall) {
  EXPECT_LT(Mcs::mpdu_error_probability(7, Mcs::required_snr_db(7) + 3.0), 0.01);
  EXPECT_GT(Mcs::mpdu_error_probability(7, Mcs::required_snr_db(7) - 3.0), 0.95);
}

TEST(WifiChannel, SnrFallsWithDistance) {
  WifiChannel ch;
  ch.place_station(0, 0.0, 0.0);
  ch.place_station(1, 5.0, 0.0);
  ch.place_station(2, 40.0, 0.0);
  EXPECT_GT(ch.mean_snr_db(0, 1), ch.mean_snr_db(0, 2) + 10.0);
}

TEST(WifiChannel, ShadowingIsSymmetricSkewSmall) {
  WifiChannel ch;
  ch.place_station(0, 0.0, 0.0);
  ch.place_station(1, 12.0, 3.0);
  const double ab = ch.mean_snr_db(0, 1);
  const double ba = ch.mean_snr_db(1, 0);
  // WiFi asymmetry exists but is mild (§5): a couple of dB at most.
  EXPECT_LT(std::abs(ab - ba), 2.5);
}

TEST(WifiChannel, FastFadingVariesOverTime) {
  WifiChannel ch;
  ch.place_station(0, 0.0, 0.0);
  ch.place_station(1, 10.0, 0.0);
  double lo = 1e9, hi = -1e9;
  for (int i = 0; i < 200; ++i) {
    const double s = ch.snr_db(0, 1, sim::milliseconds(i * 60.0));
    lo = std::min(lo, s);
    hi = std::max(hi, s);
  }
  EXPECT_GT(hi - lo, 3.0);  // WiFi moves much more than PLC (Fig. 4)
}

struct WifiNetFixture : ::testing::Test {
  sim::Simulator sim;
  std::unique_ptr<WifiNetwork> net;

  void build(double dist) {
    net = std::make_unique<WifiNetwork>(sim, sim::Rng{3});
    net->add_station(0, 0.0, 0.0);
    net->add_station(1, dist, 0.0);
  }

  double run_saturated(double seconds) {
    net::ThroughputMeter meter;
    net->station(1).set_rx_handler(
        [&](const net::Packet& p, sim::Time t) { meter.on_packet(p, t); });
    net::UdpSource::Config cfg;
    cfg.src = 0;
    cfg.dst = 1;
    cfg.rate_bps = 400e6;
    net::UdpSource source(sim, net->station(0), cfg);
    const sim::Time start = sim.now();
    source.run(start, start + sim::seconds(seconds));
    sim.run_until(start + sim::seconds(seconds));
    meter.finish(sim.now());
    return meter.average_mbps(sim::seconds(seconds));
  }
};

TEST_F(WifiNetFixture, ShortLinkNearsPhyCeiling) {
  build(4.0);
  const double mbps = run_saturated(5.0);
  EXPECT_GT(mbps, 80.0);
  EXPECT_LT(mbps, 115.0);  // paper's TW tops out around 100 Mb/s (Fig. 3)
}

TEST_F(WifiNetFixture, LongLinkIsABlindSpot) {
  build(55.0);
  const double mbps = run_saturated(5.0);
  EXPECT_LT(mbps, 8.0);  // beyond ~35 m WiFi connectivity collapses (§4.1)
}

TEST_F(WifiNetFixture, MidLinkIsVariable) {
  build(14.0);
  net::ThroughputMeter meter;
  net->station(1).set_rx_handler(
      [&](const net::Packet& p, sim::Time t) { meter.on_packet(p, t); });
  net::UdpSource::Config cfg;
  cfg.src = 0;
  cfg.dst = 1;
  cfg.rate_bps = 400e6;
  net::UdpSource source(sim, net->station(0), cfg);
  source.run(sim::Time{}, sim::seconds(10));
  sim.run_until(sim::seconds(10));
  meter.finish(sim.now());
  const auto stats = meter.stats();
  EXPECT_GT(stats.mean(), 20.0);
  EXPECT_GT(stats.stddev(), 2.0);  // the WiFi jitteriness of Fig. 3/4
}

TEST_F(WifiNetFixture, McsListenerObservesFrameControl) {
  build(6.0);
  std::vector<McsRecord> records;
  net->medium().add_mcs_listener(
      [&](const McsRecord& r) { records.push_back(r); });
  run_saturated(1.0);
  ASSERT_GT(records.size(), 50u);
  for (const auto& r : records) {
    EXPECT_GE(r.mcs, 0);
    EXPECT_LT(r.mcs, Mcs::kCount);
    EXPECT_EQ(r.src, 0);
  }
}

TEST_F(WifiNetFixture, McsCapacityTracksDistance) {
  net = std::make_unique<WifiNetwork>(sim, sim::Rng{3});
  net->add_station(0, 0.0, 0.0);
  net->add_station(1, 4.0, 0.0);
  net->add_station(2, 30.0, 0.0);
  const double near = net->mcs_capacity_mbps(0, 1, sim::seconds(1));
  const double far = net->mcs_capacity_mbps(0, 2, sim::seconds(1));
  EXPECT_GT(near, far);
}

/// Process-wide obs counter; the retry tests compare deltas around a burst.
std::uint64_t counter(const char* name) {
  return obs::MetricsRegistry::instance().snapshot().counter(name);
}

/// Two stations 1 m apart: the clean link is far above MCS 15's threshold,
/// so every MPDU loss below comes from the injected jam or a missing
/// receiver, and a clean burst is delivered without a retry.
struct WifiRetryFixture : ::testing::Test {
  static constexpr std::uint32_t kBurst = 24;
  sim::Simulator sim;
  WifiNetwork net{sim, sim::Rng{5}};
  std::vector<std::uint32_t> delivered;
  bool counting = EFD_OBS_ENABLED && obs::enabled();

  WifiRetryFixture() {
    net.add_station(0, 0.0, 0.0);
    net.add_station(1, 1.0, 0.0);
    net.station(1).set_rx_handler(
        [this](const net::Packet& p, sim::Time) { delivered.push_back(p.seq); });
  }

  WifiMac& tx() { return net.station(0); }

  /// Enqueue seqs 0..kBurst-1 at station 0 for `dst` and run until the
  /// queue has drained (delivered or dropped).
  void send_burst(net::StationId dst) {
    for (std::uint32_t i = 0; i < kBurst; ++i) {
      net::Packet p;
      p.flow_id = 1;
      p.seq = i;
      p.src = 0;
      p.dst = dst;
      p.created = sim.now();
      ASSERT_TRUE(tx().enqueue(p));
    }
    sim.run();
    ASSERT_EQ(tx().queue_length(), 0u);
  }

  void expect_clean_burst_in_order() {
    delivered.clear();
    const std::uint64_t dropped = tx().packets_dropped();
    const std::uint64_t retries = counter("wifi.mac.retries");
    send_burst(1);
    ASSERT_EQ(delivered.size(), kBurst);
    for (std::uint32_t i = 0; i < kBurst; ++i) EXPECT_EQ(delivered[i], i);
    EXPECT_EQ(tx().packets_dropped(), dropped);
    EXPECT_EQ(counter("wifi.mac.retries"), retries);
  }
};

TEST_F(WifiRetryFixture, JammedMpdusSpendTheRetryBudgetThenDrop) {
  const auto max_retries = static_cast<std::uint64_t>(WifiMac::kMaxRetries);
  const std::uint64_t retries = counter("wifi.mac.retries");
  const std::uint64_t drops = counter("wifi.mac.drops");
  const std::uint64_t errors = counter("wifi.mac.mpdu_errors");

  // Every MPDU decodes with errors: each BlockAck reports the whole frame
  // failed, and each MPDU goes back to the queue until its budget is spent.
  net.medium().set_jamming_db(200.0);
  send_burst(1);
  EXPECT_TRUE(delivered.empty());
  EXPECT_EQ(tx().packets_dropped(), kBurst);
  EXPECT_EQ(tx().packets_delivered(), 0u);
  if (counting) {
    EXPECT_EQ(counter("wifi.mac.retries") - retries, kBurst * max_retries);
    EXPECT_EQ(counter("wifi.mac.drops") - drops, kBurst);
    EXPECT_EQ(counter("wifi.mac.mpdu_errors") - errors,
              kBurst * (max_retries + 1));
  }

  net.medium().set_jamming_db(0.0);
  expect_clean_burst_in_order();
}

TEST_F(WifiRetryFixture, UnacknowledgedFramesRequeueWholeUntilDropped) {
  // Station 2 is on the channel but has no MAC: nothing decodes, no
  // BlockAck comes back, and every frame times out whole.
  net.channel().place_station(2, 1.0, 1.0);
  const auto max_retries = static_cast<std::uint64_t>(WifiMac::kMaxRetries);
  const std::uint64_t retries = counter("wifi.mac.retries");
  const std::uint64_t no_acks = counter("wifi.mac.no_acks");
  const std::uint64_t frames = counter("wifi.mac.frames_tx");

  send_burst(2);
  EXPECT_EQ(tx().packets_dropped(), kBurst);
  if (counting) {
    EXPECT_EQ(counter("wifi.mac.retries") - retries, kBurst * max_retries);
    EXPECT_EQ(counter("wifi.mac.no_acks") - no_acks,
              counter("wifi.mac.frames_tx") - frames);
  }

  expect_clean_burst_in_order();
}

}  // namespace
}  // namespace efd::wifi
