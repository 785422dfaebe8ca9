// Fig. 3 + §4.1: WiFi vs PLC for all station pairs — mean and standard
// deviation of back-to-back saturated throughput, connectivity, and the
// performance/variability ratios vs floor distance.
// Pairs are measured back to back in simulated time, each on its own
// testbed (bench::sweep).
#include "bench_util.hpp"

using namespace efd;

namespace {

struct PairResult {
  int a = 0, b = 0;
  double dist_m = 0.0;
  testbed::ThroughputResult plc;
  testbed::ThroughputResult wifi;
};

PairResult measure_pair(testbed::Testbed& tb, int a, int b, sim::Time duration) {
  PairResult r;
  r.a = a;
  r.b = b;
  r.dist_m = tb.floor_distance_m(a, b);
  if (tb.same_plc_network(a, b)) {
    bench::warm_link(tb, a, b);
    r.plc = testbed::measure_plc_throughput(tb, a, b, duration);
  }
  r.wifi = testbed::measure_wifi_throughput(tb, a, b, duration);
  return r;
}

}  // namespace

int main() {
  bench::header(
      "Fig. 3", "WiFi vs PLC spatial comparison (all pairs, back-to-back saturation)",
      "PLC connects 100% of WiFi-connected pairs; WiFi misses ~19% of PLC pairs; "
      "~52% of pairs faster on PLC; sigma_W up to ~19 Mb/s vs sigma_P < 4 Mb/s; "
      "no WiFi connectivity beyond ~35 m while PLC still delivers");
  bench::JsonReporter json("fig03");

  // Bench phases nest under the reporter's root "bench" scope; the folded
  // tree in BENCH_fig03.json then attributes the run to setup/sweep/report.
  testbed::Testbed::Config cfg;
  cfg.with_hpav500 = false;
  sim::Simulator topology_sim;
  std::unique_ptr<testbed::Testbed> tb;
  {
    EFD_PROF_SCOPE("phase.setup");
    tb = std::make_unique<testbed::Testbed>(topology_sim, cfg);
  }

  const auto pairs = tb->all_pairs();
  const auto duration = sim::seconds(8.0 * bench::duration_scale());
  // One WiFi measurement per pair, preceded by a PLC one where both
  // stations share a PLC network.
  std::vector<sim::Time> spans;
  for (const auto& [a, b] : pairs) {
    spans.push_back(testbed::measurement_span(duration) *
                    (tb->same_plc_network(a, b) ? 2 : 1));
  }
  std::vector<PairResult> results;
  {
    EFD_PROF_SCOPE("phase.sweep");
    results = bench::sweep<PairResult>(
        "pair", cfg, spans, [&](testbed::Testbed& task_tb, std::size_t i) {
          return measure_pair(task_tb, pairs[i].first, pairs[i].second, duration);
        });
  }

  EFD_PROF_SCOPE("phase.report");
  const auto connected = [](const testbed::ThroughputResult& t) {
    return t.mean_mbps > 1.0;
  };

  int plc_conn = 0, wifi_conn = 0, both = 0, wifi_only = 0, plc_only = 0;
  int plc_faster = 0, comparable_pairs = 0;
  double max_plc_gain = 0.0, max_wifi_gain = 0.0;
  sim::RunningStats sigma_w, sigma_p;
  for (const auto& r : results) {
    const bool pc = connected(r.plc);
    const bool wc = connected(r.wifi);
    plc_conn += pc;
    wifi_conn += wc;
    both += pc && wc;
    wifi_only += wc && !pc;
    plc_only += pc && !wc;
    if (pc || wc) {
      ++comparable_pairs;
      if (r.plc.mean_mbps > r.wifi.mean_mbps) ++plc_faster;
      if (pc && wc) {
        // Gains are compared on mutually connected pairs, as in the paper
        // (its examples: 40.1 vs 2.2 and 46.3 vs 3.8 Mb/s).
        max_plc_gain = std::max(max_plc_gain, r.plc.mean_mbps / r.wifi.mean_mbps);
        max_wifi_gain = std::max(max_wifi_gain, r.wifi.mean_mbps / r.plc.mean_mbps);
      }
      if (wc) sigma_w.add(r.wifi.std_mbps);
      if (pc) sigma_p.add(r.plc.std_mbps);
    }
  }

  json.add("pairs_total", static_cast<double>(results.size()), "pairs");
  json.add("plc_connected", plc_conn, "pairs");
  json.add("wifi_connected", wifi_conn, "pairs");
  json.add("pct_faster_on_plc",
           100.0 * plc_faster / std::max(1, comparable_pairs), "%");
  json.add("sigma_wifi_max", sigma_w.max(), "Mb/s");
  json.add("sigma_plc_max", sigma_p.max(), "Mb/s");

  bench::section("connectivity");
  std::printf("pairs total: %zu (PLC possible on %zu same-network pairs)\n",
              results.size(), tb->plc_links().size());
  std::printf("PLC connected:  %d   WiFi connected: %d\n", plc_conn, wifi_conn);
  std::printf("WiFi-connected pairs also on PLC: %.0f%%  (paper: 100%%)\n",
              both + wifi_only == 0
                  ? 0.0
                  : 100.0 * both / std::max(1, wifi_conn));
  std::printf("PLC-connected pairs also on WiFi: %.0f%%  (paper: 81%%)\n",
              100.0 * both / std::max(1, plc_conn));

  bench::section("average performance");
  std::printf("pairs faster on PLC: %.0f%%  (paper: 52%%)\n",
              100.0 * plc_faster / std::max(1, comparable_pairs));
  std::printf("max PLC/WiFi gain: %.1fx  (paper: 18x)\n", max_plc_gain);
  std::printf("max WiFi/PLC gain: %.1fx  (paper: 12x)\n", max_wifi_gain);

  bench::section("variability");
  std::printf("sigma_W: mean %.1f  max %.1f Mb/s  (paper max ~19.2)\n",
              sigma_w.mean(), sigma_w.max());
  std::printf("sigma_P: mean %.1f  max %.1f Mb/s  (paper: vast majority < 4)\n",
              sigma_p.mean(), sigma_p.max());

  bench::section("ratio vs distance (floor-distance buckets)");
  std::printf("%-12s %8s %8s %10s %10s %8s\n", "distance", "T_W", "T_P", "T_W/T_P",
              "sW/sP", "pairs");
  const double edges[] = {0, 10, 15, 20, 25, 30, 35, 45, 80};
  for (std::size_t e = 0; e + 1 < std::size(edges); ++e) {
    sim::RunningStats tw, tp, ratio_t, ratio_s;
    int n = 0;
    for (const auto& r : results) {
      if (r.dist_m < edges[e] || r.dist_m >= edges[e + 1]) continue;
      ++n;
      tw.add(r.wifi.mean_mbps);
      tp.add(r.plc.mean_mbps);
      if (r.plc.mean_mbps > 1.0) ratio_t.add(r.wifi.mean_mbps / r.plc.mean_mbps);
      if (r.plc.std_mbps > 0.1 && r.wifi.mean_mbps > 1.0) {
        ratio_s.add(r.wifi.std_mbps / r.plc.std_mbps);
      }
    }
    if (n == 0) continue;
    std::printf("%5.0f-%-5.0fm %8.1f %8.1f %10.2f %10.2f %8d\n", edges[e],
                edges[e + 1], tw.mean(), tp.mean(), ratio_t.mean(), ratio_s.mean(),
                n);
  }

  bench::section("long-distance blind spots (floor distance > 35 m)");
  for (const auto& r : results) {
    if (r.dist_m <= 35.0 || connected(r.wifi) || !connected(r.plc)) continue;
    std::printf("  %2d->%2d  %4.0f m: WiFi %5.1f Mb/s, PLC %5.1f Mb/s\n", r.a, r.b,
                r.dist_m, r.wifi.mean_mbps, r.plc.mean_mbps);
  }
  std::printf("(paper: PLC delivers up to 41 Mb/s where WiFi is blind)\n");
  return 0;
}
