// Fig. 11 + §6.2: cycle-scale statistics across the whole testbed — the
// average tone-map update inter-arrival time (alpha) and the BLE standard
// deviation as functions of link quality (average BLE).
#include <algorithm>

#include "bench_util.hpp"

using namespace efd;

namespace {

constexpr bench::Figure kFigure{
    "fig11", "Fig. 11", "alpha and std(BLE) vs link quality, all links (night)",
    "good links update tone maps orders of magnitude less often "
    "(alpha up to ~10 s vs ~100 ms) and show smaller BLE std (0-6 "
    "Mb/s range, falling with quality)"};

void experiment(sim::Simulator& sim, testbed::Testbed& tb, bench::JsonReporter& json) {
  sim.run_until(testbed::weekend_night());
  const double span_ms = bench::scaled(120'000.0, 0.25);

  struct Row {
    int a, b;
    double ble;
    double alpha_ms;
    double std_ble;
  };
  std::vector<Row> rows;
  for (const auto& [a, b] : tb.plc_links()) {
    if (tb.plc_channel().mean_snr_db(a, b, 0, sim.now()) < 5.0) continue;
    bench::warm_link(tb, a, b);
    auto& est = tb.plc_network_of(b).estimator(b, a);
    const auto updates_before = est.update_count();
    const auto trace = bench::cycle_trace(tb, a, b, 0x11b, sim::milliseconds(span_ms));
    sim::RunningStats stats;
    for (const auto& s : trace) stats.add(s.ble_mbps);
    const auto updates = est.update_count() - updates_before;
    rows.push_back({a, b, stats.mean(),
                    updates > 0 ? span_ms / static_cast<double>(updates) : span_ms,
                    stats.stddev()});
  }

  std::sort(rows.begin(), rows.end(),
            [](const Row& x, const Row& y) { return x.ble < y.ble; });

  bench::section("per-link statistics (sorted by average BLE)");
  std::printf("%-8s %10s %12s %12s\n", "link", "BLE Mb/s", "alpha (ms)",
              "std (Mb/s)");
  for (std::size_t i = 0; i < rows.size(); i += 6) {  // print every 6th
    const Row& r = rows[i];
    std::printf("%2d->%-5d %10.1f %12.0f %12.2f\n", r.a, r.b, r.ble, r.alpha_ms,
                r.std_ble);
  }

  bench::section("correlations");
  std::vector<double> ble, alpha, stddev;
  for (const Row& r : rows) {
    ble.push_back(r.ble);
    alpha.push_back(std::log10(r.alpha_ms));
    stddev.push_back(r.std_ble);
  }
  std::printf("corr(BLE, log alpha) = %+.2f  (paper: positive — good links "
              "update less)\n",
              json.add("corr_ble_log_alpha", sim::pearson(ble, alpha), "r"));
  std::printf("corr(BLE, std BLE)   = %+.2f  (paper: negative — good links "
              "vary less)\n",
              json.add("corr_ble_std", sim::pearson(ble, stddev), "r"));

  sim::RunningStats std_good, std_bad;
  for (const Row& r : rows) {
    (r.ble > 100.0 ? std_good : std_bad).add(r.std_ble);
  }
  std::printf("mean std(BLE): links >100 Mb/s: %.2f; links <=100: %.2f "
              "(paper: 0-6 Mb/s range)\n",
              json.add("std_ble_good", std_good.mean(), "Mb/s"),
              json.add("std_ble_rest", std_bad.mean(), "Mb/s"));
}

}  // namespace

int main() { return bench::run(kFigure, experiment); }
