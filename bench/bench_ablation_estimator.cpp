// Ablation (§7.1): what the estimator's convergence machinery buys.
//  (a) uncertainty penalty off -> probes converge instantly (no Fig. 16);
//  (b) naive offset tracking on -> maps chase instantaneous noise and BLE
//      gets noisier on jittery links.
#include "bench_util.hpp"

using namespace efd;

namespace {

constexpr bench::Figure kFigure{
    "ablation_estimator", "Ablation: estimator design",
    "uncertainty penalty / offset tracking",
    "without the sample-count uncertainty there is no Fig. 16 "
    "convergence; trusting instantaneous SNR makes BLE noisy"};

/// 1 pkt/s probing after reset; returns (estimate at t=100 s, final).
std::pair<double, double> probe_run(const plc::ChannelEstimator::Config& cfg) {
  grid::PowerGrid grid;
  const int a = grid.add_node("a");
  const int b = grid.add_node("b");
  grid.add_cable(a, b, 10.0, 30.0);
  plc::PlcChannel channel(grid, plc::PhyParams::hpav());
  channel.attach_station(0, a);
  channel.attach_station(1, b);
  plc::ChannelEstimator est(channel, 0, 1, sim::Rng{11}, cfg);
  core::ProbeTraceSampler::Config scfg;
  scfg.packets_per_second = 1.0;
  scfg.packet_bytes = 1300;
  core::ProbeTraceSampler sampler(channel, est, 0, 1, sim::Rng{2}, scfg);
  const sim::Time start = sim::days(1) + sim::hours(12);
  const auto trace = sampler.run(start, start + sim::seconds(2000), sim::seconds(10));
  double at_100 = 0.0;
  for (const auto& s : trace) {
    if ((s.t - start).seconds() >= 100.0) {
      at_100 = s.ble_mbps;
      break;
    }
  }
  return {at_100, trace.back().ble_mbps};
}

/// Saturated sampling on a jittery link; returns the BLE stddev.
double jitter_run(const plc::ChannelEstimator::Config& cfg) {
  grid::PowerGrid grid;
  const int a = grid.add_node("a");
  const int j = grid.add_node("j");
  const int b = grid.add_node("b");
  grid.add_cable(a, j, 30.0, 16.0);
  grid.add_cable(j, b, 3.0);
  auto fridge = grid::make_appliance(grid::ApplianceType::kFridge, j, 7);
  fridge.schedule = grid::ActivitySchedule::always_on();
  fridge.noise.jitter_db = 5.0;
  grid.add_appliance(fridge);
  plc::PlcChannel channel(grid, plc::PhyParams::hpav());
  channel.attach_station(0, a);
  channel.attach_station(1, b);
  plc::ChannelEstimator est(channel, 0, 1, sim::Rng{11}, cfg);
  core::LinkTraceSampler sampler(channel, est, 0, 1, sim::Rng{3});
  const sim::Time start = sim::days(1) + sim::hours(12);
  const auto trace = sampler.run(start, start + sim::seconds(120));
  sim::RunningStats stats;
  for (std::size_t i = trace.size() / 3; i < trace.size(); ++i) {
    stats.add(trace[i].ble_mbps);
  }
  return stats.stddev();
}

void experiment(bench::JsonReporter& json) {
  bench::section("uncertainty penalty (10 pkt/s probing after reset)");
  plc::ChannelEstimator::Config with_unc;
  plc::ChannelEstimator::Config no_unc;
  no_unc.uncertainty_db = 0.0;
  const auto [u100, ufinal] = probe_run(with_unc);
  const auto [n100, nfinal] = probe_run(no_unc);
  std::printf("%-28s estimate@100s %8.1f   final %8.1f\n",
              "with uncertainty (default):",
              json.add("estimate_100s_with_uncertainty", u100, "Mb/s"), ufinal);
  std::printf("%-28s estimate@100s %8.1f   final %8.1f\n", "without uncertainty:",
              json.add("estimate_100s_without_uncertainty", n100, "Mb/s"), nfinal);
  std::printf("(without the penalty the estimate starts at its final value — "
              "the convergence the paper measures in Fig. 16 disappears)\n");

  bench::section("offset tracking (saturated sampling, jittery link)");
  plc::ChannelEstimator::Config averaged;  // default: offset_tracking = 0
  plc::ChannelEstimator::Config naive;
  naive.offset_tracking = 1.0;
  std::printf("%-34s BLE std %6.2f Mb/s\n", "SNR averaged over frames (default):",
              json.add("ble_std_averaged_snr", jitter_run(averaged), "Mb/s"));
  std::printf("%-34s BLE std %6.2f Mb/s\n", "instantaneous SNR baked into maps:",
              json.add("ble_std_instantaneous_snr", jitter_run(naive), "Mb/s"));
}

}  // namespace

int main() { return bench::run(kFigure, experiment); }
