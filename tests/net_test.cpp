#include <gtest/gtest.h>

#include <vector>

#include "src/net/contention.hpp"
#include "src/net/meters.hpp"
#include "src/net/sources.hpp"
#include "alloc_count.hpp"

namespace efd::net {
namespace {

/// Interface stub that records enqueued packets and can simulate drops.
class SinkInterface final : public Interface {
 public:
  bool enqueue(const Packet& p) override {
    if (fail_every_ > 0 &&
        static_cast<int>(packets.size() + drops_) % fail_every_ == fail_every_ - 1) {
      ++drops_;
      return false;
    }
    packets.push_back(p);
    if (rx_) rx_(p, p.created);
    return true;
  }
  [[nodiscard]] std::size_t queue_length() const override { return 0; }
  void set_rx_handler(RxHandler handler) override { rx_ = std::move(handler); }

  void fail_every(int n) { fail_every_ = n; }

  std::vector<Packet> packets;

 private:
  int fail_every_ = 0;
  std::uint64_t drops_ = 0;
  RxHandler rx_;
};

TEST(UdpSource, EmitsAtConfiguredRate) {
  sim::Simulator sim;
  SinkInterface sink;
  UdpSource::Config cfg;
  cfg.rate_bps = 8e6;        // 1 MB/s
  cfg.packet_bytes = 1000;   // => 1000 packets/s
  UdpSource source(sim, sink, cfg);
  source.run(sim::Time{}, sim::seconds(2));
  sim.run_until(sim::seconds(3));
  EXPECT_NEAR(static_cast<double>(sink.packets.size()), 2000.0, 2.0);
}

TEST(UdpSource, SequencesAndMetadata) {
  sim::Simulator sim;
  SinkInterface sink;
  UdpSource::Config cfg;
  cfg.rate_bps = 8e6;
  cfg.packet_bytes = 1000;
  cfg.src = 3;
  cfg.dst = 7;
  cfg.flow_id = 42;
  UdpSource source(sim, sink, cfg);
  source.run(sim::Time{}, sim::milliseconds(100));
  sim.run_until(sim::seconds(1));
  ASSERT_GT(sink.packets.size(), 10u);
  for (std::size_t i = 0; i < sink.packets.size(); ++i) {
    const Packet& p = sink.packets[i];
    EXPECT_EQ(p.seq, i);
    EXPECT_EQ(p.src, 3);
    EXPECT_EQ(p.dst, 7);
    EXPECT_EQ(p.flow_id, 42);
    EXPECT_EQ(p.size_bytes, 1000u);
  }
}

TEST(UdpSource, CountsDrops) {
  sim::Simulator sim;
  SinkInterface sink;
  sink.fail_every(3);
  UdpSource::Config cfg;
  cfg.rate_bps = 8e6;
  cfg.packet_bytes = 1000;
  UdpSource source(sim, sink, cfg);
  source.run(sim::Time{}, sim::milliseconds(300));
  sim.run_until(sim::seconds(1));
  EXPECT_GT(source.dropped_packets(), 50u);
  EXPECT_EQ(source.offered_packets(),
            sink.packets.size() + source.dropped_packets());
}

TEST(UdpSource, StopHaltsEmission) {
  sim::Simulator sim;
  SinkInterface sink;
  UdpSource::Config cfg;
  cfg.rate_bps = 8e6;
  cfg.packet_bytes = 1000;
  UdpSource source(sim, sink, cfg);
  source.run(sim::Time{}, sim::seconds(10));
  sim.run_until(sim::milliseconds(100));
  source.stop();
  const auto count = sink.packets.size();
  sim.run_until(sim::seconds(1));
  EXPECT_EQ(sink.packets.size(), count);
}

TEST(ProbeSource, SingleProbesAtInterval) {
  sim::Simulator sim;
  SinkInterface sink;
  ProbeSource::Config cfg;
  cfg.interval = sim::milliseconds(100);
  cfg.packet_bytes = 1300;
  ProbeSource probes(sim, sink, cfg);
  probes.run(sim::Time{}, sim::seconds(1));
  sim.run_until(sim::seconds(2));
  EXPECT_EQ(probes.sent(), 10u);
}

TEST(ProbeSource, BurstsKeepRateButClump) {
  sim::Simulator sim;
  SinkInterface sink;
  ProbeSource::Config cfg;
  cfg.interval = sim::milliseconds(500);
  cfg.burst_count = 5;
  ProbeSource probes(sim, sink, cfg);
  probes.run(sim::Time{}, sim::seconds(2));
  sim.run_until(sim::seconds(3));
  EXPECT_EQ(probes.sent(), 20u);  // 4 bursts of 5
  // All packets of one burst share the same creation instant.
  EXPECT_EQ(sink.packets[0].created, sink.packets[4].created);
  EXPECT_NE(sink.packets[4].created, sink.packets[5].created);
}

TEST(ProbeSource, ResumeContinuesSequence) {
  sim::Simulator sim;
  SinkInterface sink;
  ProbeSource::Config cfg;
  cfg.interval = sim::milliseconds(100);
  ProbeSource probes(sim, sink, cfg);
  probes.run(sim::Time{}, sim::milliseconds(350));
  sim.run_until(sim::seconds(1));
  const auto first_batch = probes.sent();
  probes.resume(sim::seconds(2), sim::seconds(2) + sim::milliseconds(250));
  sim.run_until(sim::seconds(3));
  EXPECT_GT(probes.sent(), first_batch);
  // Sequence numbers keep counting across the pause.
  EXPECT_EQ(sink.packets.back().seq, probes.sent() - 1);
}

TEST(ThroughputMeter, WindowsAndTotals) {
  ThroughputMeter meter{sim::milliseconds(100)};
  Packet p;
  p.size_bytes = 1250;  // 1250 B per packet
  // 10 packets in each of 3 windows => 1 Mb/s per window.
  for (int w = 0; w < 3; ++w) {
    for (int i = 0; i < 10; ++i) {
      meter.on_packet(p, sim::milliseconds(w * 100 + i * 10 + 1));
    }
  }
  meter.finish(sim::milliseconds(300));
  ASSERT_EQ(meter.samples_mbps().size(), 3u);
  for (double mbps : meter.samples_mbps()) EXPECT_NEAR(mbps, 1.0, 1e-9);
  EXPECT_EQ(meter.total_bytes(), 37500u);
  EXPECT_EQ(meter.total_packets(), 30u);
  EXPECT_NEAR(meter.average_mbps(sim::milliseconds(300)), 1.0, 1e-9);
}

TEST(ThroughputMeter, EmptyWindowsAreZero) {
  ThroughputMeter meter{sim::milliseconds(100)};
  Packet p;
  p.size_bytes = 1000;
  meter.on_packet(p, sim::milliseconds(10));
  meter.on_packet(p, sim::milliseconds(310));  // two silent windows between
  meter.finish(sim::milliseconds(400));
  ASSERT_EQ(meter.samples_mbps().size(), 4u);
  EXPECT_GT(meter.samples_mbps()[0], 0.0);
  EXPECT_DOUBLE_EQ(meter.samples_mbps()[1], 0.0);
  EXPECT_DOUBLE_EQ(meter.samples_mbps()[2], 0.0);
}

TEST(JitterMeter, ConstantTransitIsZeroJitter) {
  JitterMeter meter;
  Packet p;
  for (int i = 0; i < 100; ++i) {
    p.created = sim::milliseconds(i * 10);
    meter.on_packet(p, sim::milliseconds(i * 10 + 5));  // constant 5 ms transit
  }
  EXPECT_NEAR(meter.jitter_ms(), 0.0, 1e-9);
}

TEST(JitterMeter, VariableTransitGrowsJitter) {
  JitterMeter meter;
  Packet p;
  for (int i = 0; i < 100; ++i) {
    p.created = sim::milliseconds(i * 10);
    const double transit = i % 2 == 0 ? 2.0 : 8.0;  // 6 ms swing
    meter.on_packet(p, p.created + sim::milliseconds(transit));
  }
  EXPECT_GT(meter.jitter_ms(), 1.0);
  EXPECT_LT(meter.jitter_ms(), 6.0);
  EXPECT_GT(meter.mean_jitter_ms(), 0.5);
}

TEST(LossMeter, CountsGapsBySequence) {
  LossMeter meter;
  Packet p;
  for (std::uint32_t s : {0u, 1u, 2u, 5u, 6u}) {  // 3 and 4 lost
    p.seq = s;
    meter.on_packet(p, sim::Time{});
  }
  EXPECT_EQ(meter.received(), 5u);
  EXPECT_EQ(meter.lost(), 2u);
  EXPECT_NEAR(meter.loss_rate(), 2.0 / 7.0, 1e-12);
}

TEST(LossMeter, NoTrafficNoLoss) {
  LossMeter meter;
  EXPECT_EQ(meter.lost(), 0u);
  EXPECT_DOUBLE_EQ(meter.loss_rate(), 0.0);
}

TEST(LossMeter, OutOfOrderIsNotLoss) {
  LossMeter meter;
  Packet p;
  for (std::uint32_t s : {1u, 0u, 3u, 2u}) {
    p.seq = s;
    meter.on_packet(p, sim::Time{});
  }
  EXPECT_EQ(meter.lost(), 0u);
}

TEST(OrderMeter, CountsReordering) {
  OrderMeter meter;
  Packet p;
  for (std::uint32_t s : {0u, 1u, 3u, 2u, 4u}) {
    p.seq = s;
    meter.on_packet(p, sim::Time{});
  }
  EXPECT_EQ(meter.received(), 5u);
  EXPECT_EQ(meter.out_of_order(), 1u);
}

// --- ContentionRound -------------------------------------------------------

struct FakeFrame {
  int sender = 0;
};

/// A MAC with a scripted priority and backoff that records what the round
/// tells it. After each frame its backoff advances by `step` (mod 5), so a
/// long run mixes clean rounds and collisions.
struct FakeMac {
  int id = 0;
  int pending = 0;  ///< frames left to send
  int priority = 0;
  int backoff = 0;
  int step = 0;
  int busy_calls = 0;
  int last_busy = -1;

  [[nodiscard]] bool has_pending() const { return pending > 0; }
  [[nodiscard]] int current_priority() const { return priority; }
  [[nodiscard]] int current_backoff() const { return backoff; }
  void on_medium_busy(int slots) {
    ++busy_calls;
    last_busy = slots;
  }
  FakeFrame build_frame(sim::Time) {
    --pending;
    backoff = (backoff + step) % 5;
    return FakeFrame{id};
  }
};

/// A medium whose PHY is a fixed airtime. It logs each round's senders (in
/// frame order) and the instant its frames went on the air.
class FakeMedium : public ContentionRound<FakeMedium, FakeMac, FakeFrame> {
 public:
  static constexpr sim::Time kSlot = sim::microseconds(10.0);
  static constexpr sim::Time kGap = sim::microseconds(20.0);
  static constexpr sim::Time kIfs = sim::microseconds(50.0);
  static constexpr sim::Time kAirtime = sim::microseconds(100.0);

  explicit FakeMedium(sim::Simulator& simulator)
      : ContentionRound(simulator, kSlot, kGap) {}

  bool log = true;
  std::vector<std::vector<int>> rounds;
  std::vector<sim::Time> starts;
  std::uint64_t frames = 0;

 private:
  friend ContentionRound<FakeMedium, FakeMac, FakeFrame>;

  static sim::Time ifs() { return kIfs; }
  sim::Time finish_round(std::vector<FakeFrame>& f, const std::vector<FakeMac*>& senders) {
    EXPECT_EQ(f.size(), senders.size());
    frames += f.size();
    if (log) {
      std::vector<int> ids;
      for (std::size_t i = 0; i < f.size(); ++i) {
        EXPECT_EQ(f[i].sender, senders[i]->id);
        ids.push_back(f[i].sender);
      }
      rounds.push_back(ids);
      starts.push_back(sim_.now());
    }
    return sim_.now() + kAirtime;
  }
};

/// When the frames of a round whose backoff minimum is `min` go on the air,
/// for a round resolved at `resolved`.
sim::Time preamble_at(sim::Time resolved, int min) {
  return resolved + FakeMedium::kGap + (min + 1) * FakeMedium::kSlot;
}

TEST(ContentionRound, OnlyTheHighestPriorityClassContends) {
  sim::Simulator sim;
  FakeMedium medium(sim);
  FakeMac low{.id = 0, .pending = 1, .priority = 0, .backoff = 0};
  FakeMac high_slow{.id = 1, .pending = 1, .priority = 3, .backoff = 4};
  FakeMac high_fast{.id = 2, .pending = 1, .priority = 3, .backoff = 2};
  for (FakeMac* m : {&low, &high_slow, &high_fast}) medium.register_mac(*m);
  medium.notify_ready();
  sim.run();

  // The low-priority station has the smallest counter, yet goes last, and
  // deferring to a higher class never counts as sensing the medium busy.
  const std::vector<std::vector<int>> order = {{2}, {1}, {0}};
  EXPECT_EQ(medium.rounds, order);
  EXPECT_EQ(low.busy_calls, 0);
  EXPECT_EQ(high_slow.busy_calls, 1);
  EXPECT_EQ(high_slow.last_busy, 2);
  EXPECT_EQ(high_fast.busy_calls, 0);
  ASSERT_EQ(medium.starts.size(), 3u);
  EXPECT_EQ(medium.starts[0], preamble_at(FakeMedium::kIfs, 2));
  EXPECT_EQ(medium.collisions(), 0u);
  EXPECT_FALSE(medium.busy());
}

TEST(ContentionRound, EqualMinimumBackoffsCollideAndEachLoserSeesTheMinimumOnce) {
  sim::Simulator sim;
  FakeMedium medium(sim);
  FakeMac a{.id = 0, .pending = 1, .backoff = 2};
  FakeMac b{.id = 1, .pending = 1, .backoff = 3};
  FakeMac c{.id = 2, .pending = 1, .backoff = 2};
  FakeMac d{.id = 3, .pending = 1, .backoff = 6};
  for (FakeMac* m : {&a, &b, &c, &d}) medium.register_mac(*m);
  medium.notify_ready();
  // Run to just before the second round is resolved.
  const sim::Time first_idle = preamble_at(FakeMedium::kIfs, 2) + FakeMedium::kAirtime;
  sim.run_until(first_idle + FakeMedium::kIfs - sim::nanoseconds(1));

  const std::vector<std::vector<int>> collided = {{0, 2}};
  EXPECT_EQ(medium.rounds, collided);
  EXPECT_EQ(medium.collisions(), 1u);
  EXPECT_EQ(a.busy_calls, 0);
  EXPECT_EQ(c.busy_calls, 0);
  for (const FakeMac* loser : {&b, &d}) {
    EXPECT_EQ(loser->busy_calls, 1) << "station " << loser->id;
    EXPECT_EQ(loser->last_busy, 2) << "station " << loser->id;
  }

  sim.run();
  const std::vector<std::vector<int>> all = {{0, 2}, {1}, {3}};
  EXPECT_EQ(medium.rounds, all);
  EXPECT_EQ(medium.collisions(), 1u);
  EXPECT_EQ(b.busy_calls, 1);  // won round 2 outright
  EXPECT_EQ(d.busy_calls, 2);  // lost rounds 1 and 2
  EXPECT_EQ(d.last_busy, 3);
}

TEST(ContentionRound, WinnerEmptiedBeforeThePreambleIsSkipped) {
  sim::Simulator sim;
  FakeMedium medium(sim);
  FakeMac a{.id = 0, .pending = 1, .backoff = 1};
  FakeMac b{.id = 1, .pending = 1, .backoff = 1};
  medium.register_mac(a);
  medium.register_mac(b);
  medium.notify_ready();
  // Between resolution (at the IFS) and the preamble, `a` loses its queue.
  sim.at(FakeMedium::kIfs + sim::microseconds(1.0), [&a] { a.pending = 0; });
  sim.run();

  const std::vector<std::vector<int>> only_b = {{1}};
  ASSERT_EQ(medium.rounds, only_b);
  EXPECT_EQ(medium.collisions(), 0u);
  EXPECT_EQ(medium.starts[0], preamble_at(FakeMedium::kIfs, 1));
}

TEST(ContentionRound, RoundWithoutFramesIdlesAndContendsAgainWhenWorkIsPending) {
  sim::Simulator sim;
  FakeMedium medium(sim);
  FakeMac winner{.id = 0, .pending = 1, .backoff = 1};
  FakeMac loser{.id = 1, .pending = 1, .backoff = 3};
  medium.register_mac(winner);
  medium.register_mac(loser);
  medium.notify_ready();
  sim.at(FakeMedium::kIfs + sim::microseconds(1.0), [&winner] { winner.pending = 0; });
  sim.run();

  // The emptied round idles at its preamble; the loser, still pending,
  // contends one IFS later and transmits after its remaining slots.
  const std::vector<std::vector<int>> only_loser = {{1}};
  ASSERT_EQ(medium.rounds, only_loser);
  const sim::Time empty_preamble = preamble_at(FakeMedium::kIfs, 1);
  EXPECT_EQ(medium.starts[0], preamble_at(empty_preamble + FakeMedium::kIfs, 3));
  EXPECT_EQ(loser.busy_calls, 1);
  EXPECT_EQ(loser.last_busy, 1);
  EXPECT_FALSE(medium.busy());

  // With nothing pending an emptied round just idles ...
  winner.pending = 1;
  medium.notify_ready();
  const sim::Time resolved = sim.now() + FakeMedium::kIfs;
  sim.at(resolved + sim::microseconds(1.0), [&winner] { winner.pending = 0; });
  sim.run();
  EXPECT_EQ(medium.rounds.size(), 1u);
  EXPECT_FALSE(medium.busy());
  EXPECT_EQ(sim.now(), preamble_at(resolved, 1));

  // ... and the next notification starts a fresh round.
  winner.pending = 1;
  medium.notify_ready();
  sim.run();
  const std::vector<std::vector<int>> both = {{1}, {0}};
  EXPECT_EQ(medium.rounds, both);
}

TEST(ContentionRound, WarmRoundsAllocateNothing) {
  sim::Simulator sim;
  FakeMedium medium(sim);
  medium.log = false;
  // All three start at backoff 0, so the first round is a three-way
  // collision and sizes every per-round vector.
  FakeMac a{.id = 0, .pending = 1 << 20, .backoff = 0, .step = 1};
  FakeMac b{.id = 1, .pending = 1 << 20, .backoff = 0, .step = 2};
  FakeMac c{.id = 2, .pending = 1 << 20, .backoff = 0, .step = 3};
  for (FakeMac* m : {&a, &b, &c}) medium.register_mac(*m);
  medium.notify_ready();
  sim.run_until(sim::milliseconds(20.0));
  const std::uint64_t warm_frames = medium.frames;
  const std::uint64_t warm_collisions = medium.collisions();
  ASSERT_GT(warm_frames, 50u);

  efd::testsupport::AllocationWindow window;
  sim.run_until(sim::milliseconds(200.0));
  EXPECT_EQ(window.count(), 0u) << window.bytes() << " bytes allocated";
  EXPECT_GT(medium.frames - warm_frames, 500u);
  EXPECT_GT(medium.collisions(), warm_collisions);
}

}  // namespace
}  // namespace efd::net
