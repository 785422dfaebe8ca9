#include "src/plc/channel_estimator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <ostream>
#include <span>
#include <vector>

#include "src/grid/appliance.hpp"
#include "src/grid/simd.hpp"
#include "src/obs/obs.hpp"
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
      const double p = ch.pb_error_probability(est.tone_map(slot), 0, 1, slot, now);
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
  EXPECT_EQ(static_cast<int>(est.tone_maps().size()),
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
  ASSERT_EQ(static_cast<int>(est.tone_maps().size()), channel.phy().tone_map_slots);
  double sum = 0.0;
  for (int s = 0; s < channel.phy().tone_map_slots; ++s) {
    EXPECT_EQ(&est.tone_map(s), &est.tone_maps()[static_cast<std::size_t>(s)]);
    sum += est.ble_mbps(s);
  }
  EXPECT_NEAR(est.average_ble_mbps(), sum / channel.phy().tone_map_slots, 1e-9);
}

/// A link direction's set of per-slot tone maps over a line whose
/// mains-synchronous noise (a light bank and a workstation at the receiver)
/// differs across the tone-map slots, so the slot maps differ too.
struct ToneMapSet : ::testing::Test {
  grid::PowerGrid grid;
  PlcChannel channel{grid, PhyParams::hpav()};

  void SetUp() override {
    const int a = grid.add_node("a");
    const int b = grid.add_node("b");
    grid.add_cable(a, b, 10.0, 22.0);
    grid.add_appliance(grid::make_appliance(grid::ApplianceType::kLightBank, b, 3));
    grid.add_appliance(grid::make_appliance(grid::ApplianceType::kWorkstation, b, 4));
    channel.attach_station(0, a);
    channel.attach_station(1, b);
  }
};

TEST_F(ToneMapSet, AverageBleOverSlots) {
  ChannelEstimator est(channel, 0, 1, sim::Rng{1}, {});
  est.on_sound_frame(sim::days(1) + sim::hours(12));
  ASSERT_EQ(static_cast<int>(est.tone_maps().size()), channel.phy().tone_map_slots);
  double sum = 0.0;
  double lo = std::numeric_limits<double>::infinity();
  double hi = -lo;
  for (const ToneMap& tm : est.tone_maps()) {
    sum += tm.ble_mbps();
    lo = std::min(lo, tm.ble_mbps());
    hi = std::max(hi, tm.ble_mbps());
  }
  // The slots really differ, so a single slot's BLE is not the average.
  EXPECT_GT(hi - lo, 1.0);
  EXPECT_NEAR(est.average_ble_mbps(), sum / static_cast<double>(est.tone_maps().size()), 1e-9);
}

TEST_F(EstimatorFixture, WithoutMapsEveryBleIsTheChannelRobo) {
  // Before the first retune, after a reset and after a fault drops the
  // maps, every slot uses the channel's one ROBO map.
  auto est = make();
  const auto expect_robo = [&](const char* when) {
    SCOPED_TRACE(when);
    EXPECT_FALSE(est.has_tone_maps());
    EXPECT_TRUE(est.tone_maps().empty());
    EXPECT_DOUBLE_EQ(est.average_ble_mbps(), channel.robo().ble_mbps());
    for (int s = 0; s < channel.phy().tone_map_slots; ++s) {
      EXPECT_EQ(&est.tone_map(s), &channel.robo());
      EXPECT_DOUBLE_EQ(est.ble_mbps(s), channel.robo().ble_mbps());
    }
  };
  expect_robo("fresh");
  est.on_sound_frame(t0());
  est.invalidate_tone_maps(t0() + sim::seconds(1));
  expect_robo("invalidated");
  est.on_sound_frame(t0() + sim::seconds(2));
  est.reset(t0() + sim::seconds(3));
  expect_robo("reset");
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
  const sim::Time expired = now + ChannelEstimator::kExpiry;
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
        std::min(candidate.pb_error_probability(true_snr, kernels), 0.45);
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

/// Runs run_margin_ladder into `fast` and checks it against the oracle bit
/// for bit: carriers, expected PBerr, BLE and id.
void expect_matches_oracle(std::span<const double> measured,
                           std::span<const double> true_snr, double margin,
                           double depth, const PhyParams& phy, std::uint32_t id,
                           const grid::simd::CarrierKernels& k, ToneMap& fast) {
  const ToneMap oracle =
      candidate_map_ladder(measured, true_snr, margin, depth, phy, id, k);
  ChannelEstimator::run_margin_ladder(measured, true_snr, margin, depth, phy, id,
                                      k, fast);
  ASSERT_EQ(fast.carriers(), oracle.carriers());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(fast.expected_pberr()),
            std::bit_cast<std::uint64_t>(oracle.expected_pberr()));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(fast.ble_mbps()),
            std::bit_cast<std::uint64_t>(oracle.ble_mbps()));
  EXPECT_EQ(fast.id(), oracle.id());
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
        SCOPED_TRACE(::testing::Message()
                     << k.name << " trial " << trial << " depth " << depth);
        expect_matches_oracle(measured, true_snr, margin, depth, phy,
                              static_cast<std::uint32_t>(trial + 1), k, fast);
      }
    }
  }
}

/// Rungs the ladder's bound has skipped so far in this process.
std::uint64_t rungs_bounded() {
  return obs::MetricsRegistry::instance().snapshot().counter(
      "plc.est.ladder_rungs_bounded");
}

TEST_P(LadderEquivalence, CraftedEdgeCasesMatchOracle) {
  const grid::simd::CarrierKernels& k = *GetParam();
  const PhyParams phy = PhyParams::hpav();
  const auto n = static_cast<std::size_t>(phy.band.n_carriers);
  const bool counting = EFD_OBS_ENABLED && obs::enabled();
  ToneMap fast;
  std::uint32_t id = 0;
  const auto check = [&](const char* what, const std::vector<double>& measured,
                         const std::vector<double>& true_snr, double margin,
                         double depth) {
    SCOPED_TRACE(::testing::Message() << k.name << ": " << what);
    expect_matches_oracle(measured, true_snr, margin, depth, phy, ++id, k, fast);
  };
  // The carriers one rung loads on its own.
  const auto rung_carriers = [&](const std::vector<double>& measured,
                                 double m) -> std::vector<Modulation> {
    return ToneMap::from_snr(measured, m, phy, 0.0, 0).carriers();
  };

  // Every carrier above the top threshold at every rung: four equal
  // loadings tie, and the one map they share must come out.
  const std::vector<double> high(n, 60.0);
  check("all above top threshold", high, high, 2.0, 1.0);

  // Every carrier below the lowest threshold: nothing loads, every rung
  // scores 0 and rung 0 wins with an all-off map.
  const std::vector<double> low(n, -20.0);
  check("all below lowest threshold", low, low, 2.0, 1.0);
  EXPECT_EQ(fast.phy_rate_mbps(), 0.0);

  // NaN measurements load nothing; NaN true SNRs read the LUT's first cell.
  std::vector<double> nan_measured(n, 20.0);
  std::vector<double> nan_true(n, 20.0);
  for (std::size_t i = 0; i < n; i += 3) nan_measured[i] = NAN;
  for (std::size_t i = 1; i < n; i += 7) nan_true[i] = NAN;
  check("some NaN measured", nan_measured, high, 1.0, 1.0);
  check("some NaN measured and true", nan_measured, nan_true, 1.0, 1.0);
  check("all NaN measured", std::vector<double>(n, NAN), high, 1.0, 1.0);

  // A depth so small that the four margins differ by single ulps, with
  // measurements straddling every threshold by a few ulps of the margin.
  const double tiny_margin = 3.0;
  const double tiny_depth = std::numeric_limits<double>::epsilon();
  ASSERT_NE(tiny_margin - 1.5 * tiny_depth, tiny_margin);
  std::vector<double> straddle(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = kRequiredSnrDb[1 + i % (kRequiredSnrDb.size() - 1)];
    double s = t + tiny_margin;
    for (std::size_t step = 0; step < (i / 7) % 7; ++step) {
      s = std::nextafter(s, i % 2 == 0 ? -INFINITY : INFINITY);
    }
    straddle[i] = s;
  }
  check("one-ulp margins", straddle, straddle, tiny_margin, tiny_depth);

  // The aggressive rung wins on a clean channel (PBerr ~ 0): rungs 0-2
  // load QAM-256 everywhere, rung 3 QAM-1024, and the bound skips the rest.
  const std::vector<double> aggressive(n, 25.5);
  const std::uint64_t bounded_before = rungs_bounded();
  check("aggressive rung wins", aggressive, high, 0.0, 1.0);
  EXPECT_EQ(fast.carriers(), rung_carriers(aggressive, -4.5));
  EXPECT_LT(fast.expected_pberr(), 1e-6);
  if (counting) {
    EXPECT_EQ(rungs_bounded() - bounded_before, 3u);
  }

  // The safe rung wins: QAM-1024 on a 26 dB channel errs too often, so
  // each safer rung out-scores it and the bound never fires.
  const std::vector<double> safe(n, 26.0);
  const std::uint64_t before_safe = rungs_bounded();
  check("safe rung wins", safe, safe, 0.0, 1.0);
  EXPECT_EQ(fast.carriers(), rung_carriers(safe, 0.0));
  if (counting) {
    EXPECT_EQ(rungs_bounded() - before_safe, 0u);
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
