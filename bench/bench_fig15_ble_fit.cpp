// Fig. 15 + §7.1: BLE as a capacity estimator — saturated throughput and
// average BLE for every link, and the linear fit the paper reports:
// BLE = 1.7 * T - 0.65.
#include "bench_util.hpp"

using namespace efd;

namespace {

constexpr bench::Figure kFigure{
    "fig15", "Fig. 15", "average BLE vs saturated throughput, all links",
    "BLE is an exact linear predictor of application throughput: "
    "BLE = 1.7*T - 0.65 with normally distributed residuals"};

void experiment(sim::Simulator& sim, testbed::Testbed& tb, bench::JsonReporter& json) {
  sim.run_until(testbed::weekday_afternoon());
  const auto duration = sim::seconds(bench::scaled(12.0, 0.25));

  std::vector<double> throughput, ble;
  for (const auto& [a, b] : tb.plc_links()) {
    if (tb.plc_channel().mean_snr_db(a, b, 0, sim.now()) < 5.0) continue;
    bench::warm_link(tb, a, b);
    // Poll the MM alongside the saturated run, as the paper averages BLE
    // over the whole test.
    sim::RunningStats ble_acc;
    sim::EventHandle poller;
    std::function<void()> poll = [&] {
      ble_acc.add(tb.plc_network_of(b).mm_average_ble(a, b));
      poller = sim.after(sim::milliseconds(500), poll);
    };
    poller = sim.after(sim::milliseconds(500), poll);
    const auto r = testbed::measure_plc_throughput(tb, a, b, duration);
    poller.cancel();
    if (r.mean_mbps < 1.0) continue;
    throughput.push_back(r.mean_mbps);
    ble.push_back(ble_acc.mean());
  }

  const auto fit = sim::fit_line(throughput, ble);
  bench::section("fit");
  std::printf("links fitted: %.0f\n",
              json.add("links_fitted", throughput.size(), "links"));
  std::printf("BLE = %.2f * T %+.2f   (paper: BLE = 1.70 * T - 0.65)\n",
              json.add("fit_slope", fit.slope, "ratio"),
              json.add("fit_intercept", fit.intercept, "Mb/s"));
  std::printf("R^2 = %.3f  (paper: residuals normally distributed)\n",
              json.add("fit_r2", fit.r2, "ratio"));

  bench::section("sample points (T, BLE)");
  std::printf("%10s %10s %12s\n", "T (Mb/s)", "BLE (Mb/s)", "1.7*T-0.65");
  for (std::size_t i = 0; i < throughput.size(); i += 9) {
    std::printf("%10.1f %10.1f %12.1f\n", throughput[i], ble[i],
                1.7 * throughput[i] - 0.65);
  }

  // Residual sanity: mean ~0, bounded spread.
  sim::RunningStats residuals;
  for (std::size_t i = 0; i < throughput.size(); ++i) {
    residuals.add(ble[i] - (fit.slope * throughput[i] + fit.intercept));
  }
  std::printf("\nresiduals: mean %+.2f, std %.2f Mb/s\n", residuals.mean(),
              residuals.stddev());
}

}  // namespace

int main() { return bench::run(kFigure, experiment); }
