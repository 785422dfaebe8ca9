// Site survey: walk the whole floor the way the paper's §4.1/§5 measurement
// campaign does — per-link PLC and WiFi quality, connectivity map, and an
// asymmetry report. This is the workflow a hybrid-network installer would
// run before placing extenders.
//
// Build & run:  ./build/examples/site_survey
#include <algorithm>
#include <cstdio>
#include <vector>

#include "src/core/capacity.hpp"
#include "src/core/classifier.hpp"
#include "src/core/sampler.hpp"
#include "src/testbed/experiment.hpp"

using namespace efd;

int main() {
  sim::Simulator sim;
  testbed::Testbed::Config cfg;
  cfg.with_hpav500 = false;
  testbed::Testbed tb(sim, cfg);
  sim.run_until(testbed::weekday_afternoon());

  core::BleCapacityEstimator capacity;

  struct Link {
    int a, b;
    double ble, wifi_mbps, cable_m, floor_m;
  };
  std::vector<Link> links;

  std::printf("Surveying %zu PLC links (plus WiFi on each pair)...\n\n",
              tb.plc_links().size());
  for (const auto& [a, b] : tb.plc_links()) {
    Link link{a, b, 0.0, 0.0, tb.plc_channel().cable_distance(a, b),
              tb.floor_distance_m(a, b)};
    if (tb.plc_channel().mean_snr_db(a, b, 0, sim.now()) > 3.0) {
      // Converge the estimator with a short saturated burst, then read BLE
      // via the management interface.
      auto& est = tb.plc_network_of(b).estimator(b, a);
      core::LinkTraceSampler sampler(tb.plc_channel(), est, a, b, sim::Rng{1});
      (void)sampler.run(sim.now(), sim.now() + sim::seconds(3));
      link.ble = est.average_ble_mbps();
    }
    link.wifi_mbps = tb.wifi().mcs_capacity_mbps(a, b, sim.now());
    links.push_back(link);
  }

  // --- Connectivity / quality map ------------------------------------------
  int plc_only = 0, wifi_better = 0, counts[3] = {0, 0, 0};
  for (const auto& l : links) {
    if (l.ble > 10.0 && l.wifi_mbps < 1.0) ++plc_only;
    if (l.wifi_mbps > capacity.throughput_from_ble(l.ble)) ++wifi_better;
    if (l.ble > 1.0) {
      ++counts[static_cast<int>(core::LinkQualityClassifier::classify(l.ble))];
    }
  }
  std::printf("quality classes (by BLE): bad %d, average %d, good %d\n",
              counts[0], counts[1], counts[2]);
  std::printf("links only PLC can serve: %d;  links faster on WiFi: %d\n\n",
              plc_only, wifi_better);

  // --- Recommended backbone links ------------------------------------------
  std::sort(links.begin(), links.end(),
            [](const Link& x, const Link& y) { return x.ble > y.ble; });
  std::printf("top backbone candidates (PLC):\n");
  std::printf("%-8s %10s %12s %10s %10s\n", "link", "BLE Mb/s", "pred. T", "cable",
              "floor");
  for (std::size_t i = 0; i < 8 && i < links.size(); ++i) {
    const Link& l = links[i];
    std::printf("%2d->%-5d %10.1f %12.1f %9.0fm %9.0fm\n", l.a, l.b, l.ble,
                capacity.throughput_from_ble(l.ble), l.cable_m, l.floor_m);
  }

  // --- Asymmetry report (probe both directions before trusting a link) -----
  std::printf("\nasymmetric links (estimate both directions, Table 3):\n");
  int shown = 0;
  for (const auto& l : links) {
    if (shown >= 6) break;
    const auto rev = std::find_if(links.begin(), links.end(), [&](const Link& r) {
      return r.a == l.b && r.b == l.a;
    });
    if (rev == links.end() || l.ble < 5.0 || rev->ble < 5.0) continue;
    const double ratio = l.ble / rev->ble;
    if (ratio > 1.4) {
      std::printf("  %2d->%2d: %5.1f Mb/s but %2d->%2d: %5.1f Mb/s (%.1fx)\n", l.a,
                  l.b, l.ble, l.b, l.a, rev->ble, ratio);
      ++shown;
    }
  }
  if (shown == 0) std::printf("  (none above 1.4x right now)\n");
  return 0;
}
