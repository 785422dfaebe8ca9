#include "src/plc/channel_estimator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <ostream>
#include <span>
#include <vector>

#include "src/grid/appliance.hpp"
#include "src/grid/simd.hpp"
#include "tests/alloc_count.hpp"

namespace efd::grid::simd {

// Name the kernel entry in parameterized test output.
void PrintTo(const CarrierKernels* k, std::ostream* os) { *os << k->name; }

}  // namespace efd::grid::simd

namespace efd::plc {
namespace {

/// Two stations over a quiet 10 m link: a good, stable channel.
struct EstimatorFixture : ::testing::Test {
  grid::PowerGrid grid;
  PlcChannel channel{grid, PhyParams::hpav()};
  ChannelEstimator::Config cfg;

  void SetUp() override {
    const int a = grid.add_node("a");
    const int b = grid.add_node("b");
    // 22 dB of lumped loss puts the link around 41 dB SNR: enough headroom
    // to ride out background impulses at the 150 Mb/s ceiling, while the
    // initial high-uncertainty margin still costs real rate.
    grid.add_cable(a, b, 10.0, 22.0);
    channel.attach_station(0, a);
    channel.attach_station(1, b);
  }

  ChannelEstimator make(std::uint64_t seed = 1) {
    return ChannelEstimator(channel, 0, 1, sim::Rng{seed}, cfg);
  }

  static sim::Time t0() { return sim::days(1) + sim::hours(12); }

  /// Feed saturated-style frames for `seconds` of simulated time.
  static void feed(ChannelEstimator& est, const PlcChannel& ch, double seconds,
                   sim::Time start, int pbs_per_frame = 60, int symbols = 40) {
    sim::Rng rng{7};
    for (double s = 0.0; s < seconds; s += 0.01) {
      const sim::Time now = start + sim::seconds(s);
      const int slot = ch.slot_at(now);
      const ToneMap& tm = est.has_tone_maps()
                              ? est.tone_maps().slots[static_cast<std::size_t>(slot)]
                              : est.tone_maps().robo;
      const double p = ch.pb_error_probability(tm, 0, 1, slot, now);
      int errors = 0;
      for (int i = 0; i < pbs_per_frame; ++i) errors += rng.bernoulli(p) ? 1 : 0;
      est.on_frame_received(slot, pbs_per_frame, errors, symbols, now);
    }
  }
};

TEST_F(EstimatorFixture, StartsWithoutToneMaps) {
  auto est = make();
  EXPECT_FALSE(est.has_tone_maps());
  // Without maps, reported BLE falls back to the ROBO default.
  EXPECT_LT(est.average_ble_mbps(), 10.0);
}

TEST_F(EstimatorFixture, SoundFrameBootstraps) {
  auto est = make();
  est.on_sound_frame(t0());
  EXPECT_TRUE(est.has_tone_maps());
  EXPECT_EQ(static_cast<int>(est.tone_maps().slots.size()),
            channel.phy().tone_map_slots);
  EXPECT_GT(est.average_ble_mbps(), 10.0);
}

TEST_F(EstimatorFixture, ConvergesUpwardWithTraffic) {
  auto est = make();
  est.on_sound_frame(t0());
  const double initial = est.average_ble_mbps();
  feed(est, channel, 10.0, t0());
  const double converged = est.average_ble_mbps();
  EXPECT_GT(converged, initial + 10.0);
  // The quiet 10 m link should sustain near the 150 Mb/s ceiling.
  EXPECT_GT(converged, 130.0);
}

TEST_F(EstimatorFixture, UncertaintyShrinksWithSamples) {
  auto est = make();
  est.on_sound_frame(t0());
  const auto few = est.pb_samples();
  feed(est, channel, 2.0, t0());
  EXPECT_GT(est.pb_samples(), few + 1000);
}

TEST_F(EstimatorFixture, ResetDropsEverything) {
  auto est = make();
  est.on_sound_frame(t0());
  feed(est, channel, 3.0, t0());
  ASSERT_TRUE(est.has_tone_maps());
  est.reset(t0() + sim::seconds(3));
  EXPECT_FALSE(est.has_tone_maps());
  EXPECT_EQ(est.pb_samples(), 0u);
  EXPECT_DOUBLE_EQ(est.measured_pberr(), 0.0);
}

TEST_F(EstimatorFixture, StatisticsPersistAcrossPause) {
  // Fig. 17: pausing the probing does not reset the estimation — BLE
  // resumes from its pre-pause value.
  auto est = make();
  est.on_sound_frame(t0());
  feed(est, channel, 10.0, t0());
  const double before = est.average_ble_mbps();
  // 7 minutes of silence, then one more batch.
  const sim::Time resume = t0() + sim::seconds(10) + sim::minutes(7);
  feed(est, channel, 0.2, resume);
  EXPECT_NEAR(est.average_ble_mbps(), before, before * 0.1);
}

TEST_F(EstimatorFixture, ExpiryTriggersRetune) {
  auto est = make();
  est.on_sound_frame(t0());
  feed(est, channel, 5.0, t0());
  const auto updates = est.update_count();
  // A single frame far beyond the 30 s expiry forces a refresh.
  est.on_frame_received(0, 10, 0, 5, t0() + sim::seconds(5) + sim::seconds(40));
  EXPECT_GT(est.update_count(), updates);
}

TEST_F(EstimatorFixture, ErrorBurstTriggersRetuneAndBleDrop) {
  auto est = make();
  est.on_sound_frame(t0());
  feed(est, channel, 10.0, t0());
  const double before = est.average_ble_mbps();
  const auto updates = est.update_count();
  // A burst of heavily errored frames (e.g. capture-effect collisions).
  sim::Time now = t0() + sim::seconds(10);
  for (int i = 0; i < 10; ++i) {
    now += sim::seconds(1);
    est.on_frame_received(0, 10, 6, 5, now);
  }
  EXPECT_GT(est.update_count(), updates);
  EXPECT_LT(est.average_ble_mbps(), before);
}

TEST_F(EstimatorFixture, PanicMarginDecaysAfterCleanTraffic) {
  auto est = make();
  est.on_sound_frame(t0());
  feed(est, channel, 10.0, t0());
  sim::Time now = t0() + sim::seconds(10);
  for (int i = 0; i < 10; ++i) {
    now += sim::seconds(1);
    est.on_frame_received(0, 10, 6, 5, now);
  }
  const double dropped = est.average_ble_mbps();
  // Clean traffic afterwards: BLE recovers within a few retunes (Fig. 10's
  // impulsive drops with convergence back).
  feed(est, channel, 80.0, now + sim::seconds(1));
  EXPECT_GT(est.average_ble_mbps(), dropped);
}

TEST_F(EstimatorFixture, SinglePbProbesClampAtR1sym) {
  // Fig. 18: 1 probe/s with <= 1 PB converges to ~89.4 Mb/s even though the
  // channel supports ~150.
  auto est = make();
  est.on_sound_frame(t0());
  sim::Time now = t0();
  sim::Rng rng{3};
  for (int i = 0; i < 600; ++i) {
    now += sim::seconds(1);
    const int slot = channel.slot_at(now);
    est.on_frame_received(slot, 1, 0, 1, now);
  }
  EXPECT_NEAR(est.average_ble_mbps(),
              channel.phy().single_pb_symbol_rate_mbps(), 4.0);
}

TEST_F(EstimatorFixture, MultiPbProbesDoNotClamp) {
  // 1300 B probes (3 PBs) escape the clamp.
  auto est = make();
  est.on_sound_frame(t0());
  sim::Time now = t0();
  for (int i = 0; i < 600; ++i) {
    now += sim::seconds(1);
    const int slot = channel.slot_at(now);
    est.on_frame_received(slot, 3, 0, 2, now);
  }
  EXPECT_GT(est.average_ble_mbps(), 120.0);
}

TEST_F(EstimatorFixture, BleSlotAccessorMatchesSet) {
  auto est = make();
  est.on_sound_frame(t0());
  double sum = 0.0;
  for (int s = 0; s < channel.phy().tone_map_slots; ++s) sum += est.ble_mbps(s);
  EXPECT_NEAR(est.average_ble_mbps(), sum / channel.phy().tone_map_slots, 1e-9);
}

/// Drives one retune with tone maps already present and the ladder at
/// depth > 0, through the public expiry path, and returns the heap
/// allocations it made. `pbs_per_frame` <= 1 engages the single-PB clamp.
std::uint64_t warm_retune_allocations(ChannelEstimator& est, const PlcChannel& ch,
                                      int pbs_per_frame, sim::Time start) {
  est.on_sound_frame(start);
  sim::Time now = start;
  for (int i = 0; i < 2000; ++i) {
    now += sim::milliseconds(10);
    est.on_frame_received(ch.slot_at(now), pbs_per_frame, 0, 1, now);
  }
  // Past 1,200 PB samples the default uncertainty (12 dB / sqrt(1 + n/400))
  // is below 6 dB, so the ladder's depth is positive: four distinct rungs.
  EXPECT_GT(est.pb_samples(), 1200u);
  EXPECT_TRUE(est.has_tone_maps());
  const sim::Time expired = now + ChannelEstimator::Config{}.expiry;
  // Fill the channel's SNR cache for the retune instant up front: a cache
  // miss belongs to the channel, not to the retune.
  for (int s = 0; s < ch.phy().tone_map_slots; ++s) {
    (void)ch.static_snr_db(0, 1, s, expired);
  }
  const auto updates = est.update_count();
  const testsupport::AllocationWindow window;
  est.maybe_expire(expired);
  const std::uint64_t allocations = window.count();
  EXPECT_EQ(est.update_count(), updates + 1);
  return allocations;
}

TEST_F(EstimatorFixture, WarmRetuneIsAllocationFree) {
  auto est = make();
  EXPECT_EQ(warm_retune_allocations(est, channel, 60, t0()), 0u);
}

TEST_F(EstimatorFixture, WarmClampedRetuneIsAllocationFree) {
  auto est = make();
  EXPECT_EQ(warm_retune_allocations(est, channel, 1, t0()), 0u);
  // The clamp did engage, so its in-place demotion was part of the count.
  EXPECT_NEAR(est.average_ble_mbps(),
              channel.phy().single_pb_symbol_rate_mbps(), 4.0);
}

/// The candidate-map ladder run_margin_ladder replaced, kept as its oracle:
/// a full ToneMap per rung (repeated rungs included), the winner's
/// carriers copied into the result.
ToneMap candidate_map_ladder(std::span<const double> measured,
                             std::span<const double> true_snr, double margin,
                             double depth, const PhyParams& phy, std::uint32_t id,
                             const grid::simd::CarrierKernels& kernels) {
  ToneMap best;
  double best_score = -1.0;
  double best_expected = 0.0;
  for (double m : {margin, margin - 1.5 * depth, margin - 3.0 * depth,
                   margin - 4.5 * depth}) {
    ToneMap candidate = ToneMap::from_snr(measured, m, phy, 0.0, id);
    const double expected =
        std::min(candidate.pb_error_probability(true_snr, phy, kernels), 0.45);
    const double score = candidate.phy_rate_mbps() * (1.0 - expected);
    if (score > best_score) {
      best_score = score;
      best_expected = expected;
      best = std::move(candidate);
    }
  }
  ToneMap out;
  out.assign_carriers(best.carriers(), phy, best_expected, id);
  return out;
}

class LadderEquivalence
    : public ::testing::TestWithParam<const grid::simd::CarrierKernels*> {};

TEST_P(LadderEquivalence, MatchesCandidateMapOracleBitForBit) {
  const grid::simd::CarrierKernels& k = *GetParam();
  sim::Rng rng{0x1add3u};
  // One output map across all trials: exercises the in-place rebuild over
  // a previous map's buffers, including a change of carrier count.
  ToneMap fast;
  for (const PhyParams& phy : {PhyParams::hpav(), PhyParams::hpav500()}) {
    const auto n = static_cast<std::size_t>(phy.band.n_carriers);
    std::vector<double> true_snr(n);
    std::vector<double> measured(n);
    for (int trial = 0; trial < 40; ++trial) {
      // A frequency-selective channel spanning every threshold, measured
      // through per-carrier estimation noise of varying strength.
      const double level = rng.uniform(-5.0, 40.0);
      const double ripple = rng.uniform(0.0, 20.0);
      const double sigma = rng.uniform(0.0, 4.0);
      for (std::size_t i = 0; i < n; ++i) {
        true_snr[i] = level + ripple * rng.uniform(-1.0, 1.0);
        measured[i] = true_snr[i] + rng.normal(0.0, sigma + 1e-9);
      }
      const double margin = rng.uniform(-2.0, 14.0);
      for (double depth : {0.0, 0.5, 1.0}) {
        const auto id = static_cast<std::uint32_t>(trial + 1);
        const ToneMap oracle = candidate_map_ladder(measured, true_snr, margin,
                                                    depth, phy, id, k);
        ChannelEstimator::run_margin_ladder(measured, true_snr, margin, depth,
                                            phy, id, k, fast);
        ASSERT_EQ(fast.carriers(), oracle.carriers())
            << k.name << " trial " << trial << " depth " << depth;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(fast.expected_pberr()),
                  std::bit_cast<std::uint64_t>(oracle.expected_pberr()))
            << k.name << " trial " << trial << " depth " << depth;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(fast.ble_mbps()),
                  std::bit_cast<std::uint64_t>(oracle.ble_mbps()))
            << k.name << " trial " << trial << " depth " << depth;
        EXPECT_EQ(fast.id(), oracle.id());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllImpls, LadderEquivalence,
                         ::testing::ValuesIn(grid::simd::available_kernels().begin(),
                                             grid::simd::available_kernels().end()));

class ProbeRateSweep : public ::testing::TestWithParam<int> {};

TEST_P(ProbeRateSweep, HigherRateConvergesFaster) {
  // Core Fig. 16 property: more probes per second, faster convergence.
  grid::PowerGrid grid;
  const int a = grid.add_node("a");
  const int b = grid.add_node("b");
  grid.add_cable(a, b, 10.0);
  PlcChannel channel{grid, PhyParams::hpav()};
  channel.attach_station(0, a);
  channel.attach_station(1, b);

  const int rate = GetParam();
  ChannelEstimator est(channel, 0, 1, sim::Rng{5}, {});
  const sim::Time t0 = sim::days(1) + sim::hours(12);
  est.on_sound_frame(t0);
  // 60 simulated seconds of probing at `rate` packets (3 PBs each) per s.
  sim::Time now = t0;
  for (int s = 0; s < 60; ++s) {
    for (int k = 0; k < rate; ++k) {
      now += sim::seconds(1.0 / rate);
      est.on_frame_received(channel.slot_at(now), 3, 0, 2, now);
    }
  }
  // Samples scale with rate; the uncertainty-driven margin shrinks with it.
  EXPECT_GE(est.pb_samples(), static_cast<std::uint64_t>(rate) * 60 * 3);
}

INSTANTIATE_TEST_SUITE_P(Rates, ProbeRateSweep, ::testing::Values(1, 10, 50));

}  // namespace
}  // namespace efd::plc
