// Fig. 17 + §7.1: devices keep their channel-estimation statistics across a
// probing pause — the estimate resumes from its pre-pause value, so the
// convergence cost is paid only once in realistic probing.
#include "bench_util.hpp"

using namespace efd;

namespace {

constexpr bench::Figure kFigure{
    "fig17", "Fig. 17", "estimation across a probing pause (20 pkt/s)",
    "after a reset the estimate climbs; pausing probes for 7 min at "
    "t=2300 s changes nothing — the estimate resumes where it was"};

void experiment(sim::Simulator& sim, testbed::Testbed& tb, bench::JsonReporter& json) {
  sim.run_until(testbed::weekend_night());

  // Four links of different qualities, as in the paper (1-0, 1-6, 1-10, 1-5).
  std::vector<std::pair<int, int>> links;
  double bands[][2] = {{35, 99}, {22, 30}, {15, 20}, {9, 13}};
  for (const auto& band : bands) {
    for (const auto& [a, b] : tb.plc_links()) {
      const double snr = tb.plc_channel().mean_snr_db(a, b, 0, sim.now());
      if (snr >= band[0] && snr <= band[1]) {
        links.emplace_back(a, b);
        break;
      }
    }
  }

  for (const auto& [a, b] : links) {
    auto sampler = bench::probe_after_reset(tb, a, b, 0x17a, 20.0, 1300);
    const sim::Time start = sim.now();
    // Probe until t=2300 s.
    auto trace = sampler.run(start, start + sim::seconds(2300), sim::seconds(10));
    const double before_pause = trace.back().ble_mbps;
    // Pause ~7 minutes: no probes at all.
    const sim::Time resume = start + sim::seconds(2300) + sim::minutes(7);
    const double at_resume = tb.plc_network_of(b).estimator(b, a).average_ble_mbps();
    // Resume probing to t=5000 s.
    auto tail = sampler.run(resume, start + sim::seconds(5000), sim::seconds(10));
    const double after_resume = tail.front().ble_mbps;
    const double end_value = tail.back().ble_mbps;

    bench::section("link " + std::to_string(a) + "->" + std::to_string(b));
    std::printf("estimate at t=100 s: %.1f;  just before pause (t=2300 s): %.1f\n",
                trace[10].ble_mbps, before_pause);
    std::printf("during pause: %.1f;  first sample after resume: %.1f;  "
                "t=5000 s: %.1f Mb/s\n",
                at_resume, after_resume, end_value);
    std::printf("pause penalty: %+.1f Mb/s (paper: none — statistics persist)\n",
                json.add("pause_penalty_" + std::to_string(a) + "_" + std::to_string(b),
                         after_resume - before_pause, "Mb/s"));
  }
}

}  // namespace

int main() { return bench::run(kFigure, experiment); }
