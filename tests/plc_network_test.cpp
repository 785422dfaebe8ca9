#include "src/plc/network.hpp"

#include <gtest/gtest.h>

namespace efd::plc {
namespace {

struct NetworkFixture : ::testing::Test {
  sim::Simulator sim;
  grid::PowerGrid grid;
  std::unique_ptr<PlcChannel> channel;
  std::unique_ptr<PlcNetwork> network;

  void SetUp() override {
    const int strip = grid.add_node("strip");
    channel = std::make_unique<PlcChannel>(grid, PhyParams::hpav());
    network = std::make_unique<PlcNetwork>(sim, *channel, sim::Rng{5},
                                           PlcNetwork::Config{});
    for (int i = 0; i < 3; ++i) {
      const int outlet = grid.add_node("o" + std::to_string(i));
      grid.add_cable(strip, outlet, 3.0 + i);
      channel->attach_station(i, outlet);
      network->add_station(i, outlet);
    }
  }
};

TEST_F(NetworkFixture, FirstStationBecomesCco) {
  EXPECT_EQ(network->cco(), 0);
}

TEST_F(NetworkFixture, CcoCanBePinnedStatically) {
  network->set_cco(2);  // the paper pins CCos with the Atheros toolkit
  EXPECT_EQ(network->cco(), 2);
}

TEST_F(NetworkFixture, StationLookup) {
  EXPECT_TRUE(network->has_station(1));
  EXPECT_FALSE(network->has_station(9));
  EXPECT_EQ(network->station(1).id(), 1);
  EXPECT_EQ(network->station(2).mac().id(), 2);
}

TEST_F(NetworkFixture, EstimatorsAreLazyAndStable) {
  ChannelEstimator& e1 = network->estimator(1, 0);
  ChannelEstimator& e2 = network->estimator(1, 0);
  EXPECT_EQ(&e1, &e2);  // same directed link: same estimator
  ChannelEstimator& reverse = network->estimator(0, 1);
  EXPECT_NE(&e1, &reverse);  // reverse direction is a different estimator
}

TEST_F(NetworkFixture, MmQueriesReflectEstimatorState) {
  auto& est = network->estimator(1, 0);
  EXPECT_LT(network->mm_average_ble(0, 1), 10.0);  // ROBO fallback pre-sound
  est.on_sound_frame(sim::seconds(1));
  EXPECT_GT(network->mm_average_ble(0, 1), 10.0);
  EXPECT_DOUBLE_EQ(network->mm_pberr(0, 1), est.measured_pberr());
}

TEST_F(NetworkFixture, MediumIsShared) {
  // Every station registered on the one medium: a frame from 0 to 1 is
  // heard by the sniffer exactly once.
  int sofs = 0;
  network->medium().add_sniffer([&](const SofRecord&) { ++sofs; });
  net::Packet p;
  p.src = 0;
  p.dst = 1;
  p.size_bytes = 1000;
  network->station(0).mac().enqueue(p);
  sim.run_until(sim::seconds(1));
  EXPECT_EQ(sofs, 1);
}

// A deliberately lossy direct link for the fault-hook tests: ~35 dB of
// extra cable loss puts the static SNR in the mid-20s dB, where the bit
// loader's margin actually moves the constellation choice. The default
// fixture's 3 m cables are so clean (~60 dB SNR) that even the capped
// 14 dB panic margin cannot demote QAM-1024, which would make the
// estimator's fault reaction invisible in BLE.
struct LossyLinkFixture : ::testing::Test {
  sim::Simulator sim;
  grid::PowerGrid grid;
  std::unique_ptr<PlcChannel> channel;
  std::unique_ptr<PlcNetwork> network;
  std::uint32_t next_seq = 1;

  void SetUp() override {
    const int a = grid.add_node("a");
    const int b = grid.add_node("b");
    grid.add_cable(a, b, 30.0, /*extra_loss_db=*/35.0);
    channel = std::make_unique<PlcChannel>(grid, PhyParams::hpav());
    network = std::make_unique<PlcNetwork>(sim, *channel, sim::Rng{5},
                                           PlcNetwork::Config{});
    channel->attach_station(0, a);
    network->add_station(0, a);
    channel->attach_station(1, b);
    network->add_station(1, b);
  }

  /// Paced saturation 0 -> 1: a batch every 1.7 ms, coprime with the 10 ms
  /// AC half cycle, so frame starts precess through every tone-map slot
  /// instead of strobing on a single phase (10 ms pacing would pin every
  /// batch to the same slot).
  void drive(int batches) {
    net::Packet p;
    p.src = 0;
    p.dst = 1;
    p.size_bytes = 1400;
    for (int batch = 0; batch < batches; ++batch) {
      for (int i = 0; i < 5; ++i) {
        p.seq = next_seq++;
        network->station(0).mac().enqueue(p);
      }
      sim.run_until(sim.now() + sim::microseconds(1700));
    }
  }
};

TEST_F(LossyLinkFixture, FaultPbErrorReachesEstimatorInEverySlot) {
  // The medium's fault hook forces a floor on the PB error probability of
  // every frame, regardless of which tone-map slot the frame lands in. The
  // receiver-side estimator must observe it in ALL slots — traffic spans
  // many AC half cycles, so frames cross every slot boundary — and retune
  // its maps downward, not just in the slot active when the hook was set.
  auto& est = network->estimator(1, 0);
  est.on_sound_frame(sim.now());
  ASSERT_TRUE(est.has_tone_maps());
  const int n_slots = channel->phy().tone_map_slots;
  std::vector<double> clean_ble;
  for (int s = 0; s < n_slots; ++s) clean_ble.push_back(est.ble_mbps(s));
  const std::uint64_t updates_before = est.update_count();

  network->medium().set_fault_pb_error(0.4);
  std::vector<int> slots_hit(static_cast<std::size_t>(n_slots), 0);
  network->medium().add_sniffer(
      [&](const SofRecord& sof) { ++slots_hit[static_cast<std::size_t>(sof.slot)]; });
  drive(200);

  for (int s = 0; s < n_slots; ++s) {
    EXPECT_GT(slots_hit[static_cast<std::size_t>(s)], 0) << "slot " << s;
  }
  // The error pressure forced retunes, and the ampstat-style measured
  // PBerr converged near the injected floor.
  EXPECT_GT(est.update_count(), updates_before);
  EXPECT_GT(est.measured_pberr(), 0.2);
  // Every slot's map retuned below its clean-channel rate: the panic
  // margin applies to all slots of the rebuilt set, not just the slot
  // that was active when the errors were observed.
  for (int s = 0; s < n_slots; ++s) {
    EXPECT_LT(est.ble_mbps(s), clean_ble[static_cast<std::size_t>(s)])
        << "slot " << s;
  }
}

TEST_F(LossyLinkFixture, FaultPbErrorClearRestoresCleanEstimation) {
  // set_fault_pb_error(0) must restore the clean channel: estimation
  // recovers once the expiry-driven retune sees error-free frames again.
  auto& est = network->estimator(1, 0);
  est.on_sound_frame(sim.now());
  network->medium().set_fault_pb_error(0.4);
  drive(200);
  const double faulted = est.average_ble_mbps();
  EXPECT_GT(est.measured_pberr(), 0.2);

  network->medium().set_fault_pb_error(0.0);
  EXPECT_DOUBLE_EQ(network->medium().fault_pb_error(), 0.0);
  // Ride past the 30 s tone-map expiry so the next frames force a retune
  // from clean statistics; the panic margin decays with each clean retune.
  sim.run_until(sim.now() + sim::seconds(40));
  drive(200);
  EXPECT_GT(est.average_ble_mbps(), faulted);
  EXPECT_LT(est.measured_pberr(), 0.1);
}

TEST_F(NetworkFixture, SlotAttributionAtHalfCycleBoundaries) {
  // slot_at() partitions the AC half cycle (10 ms) into tone_map_slots
  // equal windows: the first instant of the half cycle is slot 0, the last
  // nanosecond belongs to the final slot, and the next half cycle wraps
  // back to slot 0 — the boundaries the estimator's per-slot accounting
  // relies on when the fault hook errors frames near a slot edge.
  const int n_slots = channel->phy().tone_map_slots;
  const sim::Time half = grid::Mains::half_cycle();
  const sim::Time base = sim::seconds(100);  // aligned: 10 s = 1000 half cycles
  EXPECT_EQ(channel->slot_at(base), 0);
  EXPECT_EQ(channel->slot_at(base + half - sim::Time{1}), n_slots - 1);
  EXPECT_EQ(channel->slot_at(base + half), 0);
  for (int s = 0; s < n_slots; ++s) {
    // Slot s spans [ceil(half*s/n), ceil(half*(s+1)/n)) in integer ns.
    const auto start_ns = (half.ns() * s + n_slots - 1) / n_slots;
    const auto end_ns = (half.ns() * (s + 1) + n_slots - 1) / n_slots - 1;
    EXPECT_EQ(channel->slot_at(base + sim::Time{start_ns}), s) << "slot " << s;
    EXPECT_EQ(channel->slot_at(base + sim::Time{end_ns}), s)
        << "last tick of slot " << s;
  }
}

TEST_F(NetworkFixture, SnifferRemovalStopsDelivery) {
  int sofs = 0;
  const auto id = network->medium().add_sniffer([&](const SofRecord&) { ++sofs; });
  network->medium().remove_sniffer(id);
  net::Packet p;
  p.src = 0;
  p.dst = 1;
  p.size_bytes = 1000;
  network->station(0).mac().enqueue(p);
  sim.run_until(sim::seconds(1));
  EXPECT_EQ(sofs, 0);
}

}  // namespace
}  // namespace efd::plc
