// Fig. 16 + §7.1: estimated capacity vs time for different probe rates
// (1/10/50/200 packets per second of 1300 B), after a device reset. The
// estimate converges to the same value at every rate, but the convergence
// time shrinks as the rate grows.
#include "bench_util.hpp"

using namespace efd;

namespace {

constexpr bench::Figure kFigure{
    "fig16", "Fig. 16", "capacity-estimation convergence vs probe rate",
    "all rates converge to the same capacity; 200 pkt/s converges "
    "within minutes while 1 pkt/s needs thousands of seconds"};

void experiment(sim::Simulator& sim, testbed::Testbed& tb, bench::JsonReporter& json) {
  sim.run_until(testbed::weekend_night());

  // One good and one average link, as in the paper (links 1-11 and 1-5).
  struct LinkPick { int a, b; const char* label; };
  std::vector<LinkPick> picks;
  for (const auto& [a, b] : tb.plc_links()) {
    const double snr = tb.plc_channel().mean_snr_db(a, b, 0, sim.now());
    if (picks.empty() && snr > 35.0) picks.push_back({a, b, "good link"});
    if (picks.size() == 1 && snr > 14.0 && snr < 19.0) {
      picks.push_back({a, b, "average link"});
      break;
    }
  }

  const double rates[] = {1.0, 10.0, 50.0, 200.0};
  const double checkpoints_s[] = {50, 200, 500, 1000, 2000, 4000, 8000};

  for (const auto& pick : picks) {
    bench::section(std::string(pick.label) + " " + std::to_string(pick.a) + "->" +
                   std::to_string(pick.b) + ": estimated capacity (Mb/s) vs time");
    std::printf("%12s", "t (s)");
    for (double cp : checkpoints_s) std::printf(" %8.0f", cp);
    std::printf("   converge@95%%\n");
    for (double rate : rates) {
      // Device reset before each run (§7.1).
      auto sampler = bench::probe_after_reset(tb, pick.a, pick.b, 0x16f, rate, 1300);
      const sim::Time start = sim.now();
      const auto trace = sampler.run(start, start + sim::seconds(8000),
                                     sim::seconds(10));
      std::printf("%6.0f pkt/s", rate);
      std::size_t ci = 0;
      double converge_at = 8000.0;
      const double final_ble = trace.back().ble_mbps;
      bool converged = false;
      for (const auto& s : trace) {
        const double elapsed = (s.t - start).seconds();
        if (ci < std::size(checkpoints_s) && elapsed >= checkpoints_s[ci]) {
          std::printf(" %8.1f", s.ble_mbps);
          ++ci;
        }
        if (!converged && s.ble_mbps >= 0.95 * final_ble) {
          converge_at = elapsed;
          converged = true;
        }
      }
      std::printf("   %8.0f s\n", converge_at);
      json.add("converge_s_" + std::to_string(pick.a) + "_" +
                   std::to_string(pick.b) + "_" + std::to_string(static_cast<int>(rate)),
               converge_at, "s");
    }
  }
  std::printf("\n(the convergence time falls with probe rate because per-"
              "carrier statistics need PB samples; the final value does not "
              "depend on the rate)\n");
}

}  // namespace

int main() { return bench::run(kFigure, experiment); }
