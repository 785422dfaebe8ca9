#include "src/core/sampler.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "src/grid/appliance.hpp"
#include "src/obs/metrics.hpp"
#include "src/sim/fnv1a.hpp"
#include "src/sim/stats.hpp"

namespace efd::core {
namespace {

/// A one-link rig: clean 10 m cable, or a 60 m run with noisy kitchen loads
/// at the receiver end.
struct LinkRig {
  grid::PowerGrid grid;
  std::unique_ptr<plc::PlcChannel> channel;
  std::unique_ptr<plc::ChannelEstimator> estimator;

  explicit LinkRig(bool noisy) {
    const int a = grid.add_node("a");
    const int b = grid.add_node("b");
    // The clean link sits near 45 dB SNR — enough headroom that even the
    // biggest background impulses cannot reach it (a true "good link");
    // the noisy one adds panel loss and always-on heavy loads.
    grid.add_cable(a, b, noisy ? 60.0 : 10.0, noisy ? 34.0 : 18.0);
    if (noisy) {
      const int j = grid.add_node("j");
      grid.add_cable(b, j, 2.0);
      auto microwave = grid::make_appliance(grid::ApplianceType::kMicrowave, j, 3);
      microwave.schedule = grid::ActivitySchedule::always_on();
      grid.add_appliance(microwave);
      auto fridge = grid::make_appliance(grid::ApplianceType::kFridge, j, 4);
      fridge.schedule = grid::ActivitySchedule::always_on();
      grid.add_appliance(fridge);
    }
    channel = std::make_unique<plc::PlcChannel>(grid, plc::PhyParams::hpav());
    channel->attach_station(0, a);
    channel->attach_station(1, b);
    estimator = std::make_unique<plc::ChannelEstimator>(
        *channel, 0, 1, sim::Rng{11}, plc::ChannelEstimator::Config{});
  }
};

sim::Time noon() { return sim::days(1) + sim::hours(12); }

sim::RunningStats second_half_stats(const std::vector<BleSample>& trace) {
  sim::RunningStats stats;
  for (std::size_t i = trace.size() / 2; i < trace.size(); ++i) {
    stats.add(trace[i].ble_mbps);
  }
  return stats;
}

TEST(LinkTraceSampler, TraceHasRequestedCadence) {
  LinkRig rig(false);
  LinkTraceSampler sampler(*rig.channel, *rig.estimator, 0, 1, sim::Rng{1});
  const auto trace = sampler.run(noon(), noon() + sim::seconds(10));
  EXPECT_EQ(trace.size(), 200u);  // 10 s at 50 ms
  EXPECT_EQ(trace[1].t - trace[0].t, sim::milliseconds(50));
}

TEST(LinkTraceSampler, GoodLinkConvergesAndStaysStable) {
  LinkRig rig(false);
  LinkTraceSampler sampler(*rig.channel, *rig.estimator, 0, 1, sim::Rng{1});
  const auto trace = sampler.run(noon(), noon() + sim::seconds(60));
  const auto stats = second_half_stats(trace);
  EXPECT_GT(stats.mean(), 130.0);
  EXPECT_LT(stats.stddev(), 4.0);  // good links vary little (§6.2)
}

TEST(LinkTraceSampler, NoisyLinkHasLowerBleAndMoreVariance) {
  LinkRig noisy_rig(true);
  LinkTraceSampler noisy_sampler(*noisy_rig.channel, *noisy_rig.estimator, 0, 1,
                                 sim::Rng{1});
  const auto noisy = second_half_stats(
      noisy_sampler.run(noon(), noon() + sim::seconds(60)));

  LinkRig clean_rig(false);
  LinkTraceSampler clean_sampler(*clean_rig.channel, *clean_rig.estimator, 0, 1,
                                 sim::Rng{1});
  const auto clean = second_half_stats(
      clean_sampler.run(noon(), noon() + sim::seconds(60)));

  EXPECT_LT(noisy.mean(), clean.mean());
  // Link quality and variability are negatively correlated (§6.2, §8.1).
  EXPECT_GT(noisy.stddev(), clean.stddev());
}

// Golden trace of the fig12-14 path: fig14's sampler config on the noisy
// link, long enough that the estimator leaves its cold start (depth > 0 in
// the margin ladder) and retunes on errors. Every sample's time and BLE bits
// are folded into one FNV-1a digest, so any change to the estimator's draws,
// bit loading or retune triggers fails here instead of only moving the
// perfbench provenance digest.
TEST(LinkTraceSampler, GoldenTraceDigest) {
  LinkRig rig(true);
  LinkTraceSampler::Config cfg;
  cfg.step = sim::seconds(5);
  cfg.pbs_per_step = 130000;
  LinkTraceSampler sampler(*rig.channel, *rig.estimator, 0, 1, sim::Rng{0x14e},
                           cfg);
  const auto error_retunes = [] {
    return obs::MetricsRegistry::instance().snapshot().counter(
        "plc.est.error_retunes");
  };
  const std::uint64_t retunes_before = error_retunes();
  const auto trace = sampler.run(noon(), noon() + sim::minutes(30));
  sim::Fnv1a64 digest;
  for (const BleSample& s : trace) {
    digest.mix(s.t.ns());
    digest.mix(std::bit_cast<std::uint64_t>(s.ble_mbps));
  }
  // uncertainty 12/sqrt(1 + n/400) dB falls below 6 dB past 1200 samples.
  EXPECT_GT(rig.estimator->pb_samples(), 1200u);
  EXPECT_GT(error_retunes() - retunes_before, 0u);
  EXPECT_EQ(digest.h, 0x02cd6d95b3e3774eULL);
}

TEST(ProbeTraceSampler, ConvergesFasterAtHigherRates) {
  // The Fig. 16 property, driven through the ProbeTraceSampler.
  const auto converge_time = [&](double rate) {
    LinkRig rig(false);
    ProbeTraceSampler::Config cfg;
    cfg.packets_per_second = rate;
    cfg.packet_bytes = 1300;
    ProbeTraceSampler sampler(*rig.channel, *rig.estimator, 0, 1, sim::Rng{2}, cfg);
    const auto trace =
        sampler.run(noon(), noon() + sim::seconds(2000), sim::seconds(5));
    const double final_ble = trace.back().ble_mbps;
    for (const auto& s : trace) {
      if (s.ble_mbps > 0.95 * final_ble) return (s.t - noon()).seconds();
    }
    return 2000.0;
  };
  EXPECT_LT(converge_time(50.0), converge_time(1.0));
}

TEST(ProbeTraceSampler, EstimationSurvivesPause) {
  // Fig. 17: estimation survives a probing pause.
  LinkRig rig(false);
  ProbeTraceSampler::Config cfg;
  cfg.packets_per_second = 20.0;
  ProbeTraceSampler sampler(*rig.channel, *rig.estimator, 0, 1, sim::Rng{2}, cfg);
  (void)sampler.run(noon(), noon() + sim::seconds(100), sim::seconds(1));
  const double before = rig.estimator->average_ble_mbps();
  // 7-minute pause: no samples processed, then probing resumes.
  const sim::Time resume = noon() + sim::seconds(100) + sim::minutes(7);
  const auto after =
      sampler.run(resume, resume + sim::seconds(10), sim::seconds(1));
  EXPECT_NEAR(after.back().ble_mbps, before, before * 0.12);
}

TEST(ProbeTraceSampler, SmallProbesClampToSingleSymbolRate) {
  // Fig. 18 through the sampler: 1 probe/s of 200 B converges to ~89.4.
  LinkRig rig(false);
  ProbeTraceSampler::Config cfg;
  cfg.packets_per_second = 1.0;
  cfg.packet_bytes = 200;
  ProbeTraceSampler sampler(*rig.channel, *rig.estimator, 0, 1, sim::Rng{2}, cfg);
  const auto trace =
      sampler.run(noon(), noon() + sim::seconds(3000), sim::seconds(10));
  EXPECT_NEAR(trace.back().ble_mbps,
              rig.channel->phy().single_pb_symbol_rate_mbps(), 5.0);
}

}  // namespace
}  // namespace efd::core
