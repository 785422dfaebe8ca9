// Fig. 10 + §6.2: cycle-scale variation of the average BLE for links of
// different qualities — 200 s traces at the 50 ms MM polling cadence during
// a quiet night (no random-scale events).
#include <algorithm>

#include "bench_util.hpp"

using namespace efd;

namespace {

constexpr bench::Figure kFigure{
    "fig10", "Fig. 10", "cycle-scale BLE traces by link quality (night)",
    "bad links retune often with large BLE std; average links keep "
    "tone maps for seconds; good links stay flat for tens of "
    "seconds with <1% wiggles or small impulsive drops"};

void experiment(sim::Simulator& sim, testbed::Testbed& tb, bench::JsonReporter& json) {
  sim.run_until(testbed::weekend_night());

  // Pick two links of each quality class from the live floor.
  struct Pick {
    int a, b;
    double ble;
  };
  std::vector<Pick> bad, avg, good;
  for (const auto& [a, b] : tb.plc_links()) {
    if (tb.plc_channel().mean_snr_db(a, b, 0, sim.now()) < 5.0) continue;
    const double ble = bench::warmed_ble(tb, a, b);
    Pick p{a, b, ble};
    if (ble < 60.0 && bad.size() < 2) bad.push_back(p);
    if (ble >= 60.0 && ble <= 100.0 && avg.size() < 2) avg.push_back(p);
    // "Good" in the paper's sense: enough SNR headroom that noise cannot
    // touch the tone maps — these ride at/near the 150 Mb/s ceiling.
    if (ble > 145.0 && good.size() < 2) good.push_back(p);
  }

  const auto trace_link = [&](const Pick& p, const char* klass) {
    auto& est = tb.plc_network_of(p.b).estimator(p.b, p.a);
    const auto updates_before = est.update_count();
    const auto trace = bench::cycle_trace(tb, p.a, p.b, 0x10a, sim::seconds(200));
    sim::RunningStats stats;
    for (const auto& s : trace) stats.add(s.ble_mbps);
    const auto updates = est.update_count() - updates_before;
    const std::string link = std::to_string(p.a) + "-" + std::to_string(p.b);
    bench::section(std::string(klass) + " link " + link);
    std::printf("BLE mean %.1f, std %.2f, min %.1f, max %.1f Mb/s; "
                "tone-map updates in 200 s: %llu (alpha ~ %.0f ms)\n",
                stats.mean(), json.add(std::string(klass) + "_std_" + link,
                                       stats.stddev(), "Mb/s"),
                stats.min(), stats.max(), static_cast<unsigned long long>(updates),
                updates > 0 ? 200000.0 / static_cast<double>(updates) : 1e9);
    std::printf("trace every 10 s: ");
    for (std::size_t i = 0; i < trace.size(); i += 200) {
      std::printf("%.0f ", trace[i].ble_mbps);
    }
    std::printf("\n");
  };

  for (const auto& p : bad) trace_link(p, "bad");
  for (const auto& p : avg) trace_link(p, "average");
  for (const auto& p : good) trace_link(p, "good");

  bench::section("asymmetry in temporal variability (paper: links 15-18 / 18-15)");
  if (!avg.empty()) {
    const Pick fwd = avg.front();
    const Pick rev{fwd.b, fwd.a, 0.0};
    trace_link(fwd, "forward");
    trace_link(rev, "reverse");
  }
}

}  // namespace

int main() { return bench::run(kFigure, experiment); }
