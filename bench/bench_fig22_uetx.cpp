// Fig. 22 + §8.1: unicast ETX from sniffed SoF timestamps — U-ETX vs BLE
// and vs PBerr across the testbed, with the closed-form prediction from the
// selective-retransmission model.
#include <algorithm>

#include "bench_util.hpp"

#include "src/core/etx.hpp"

using namespace efd;

namespace {

constexpr bench::Figure kFigure{
    "fig22", "Fig. 22", "U-ETX vs BLE and vs PBerr (150 kb/s unicast probes)",
    "U-ETX falls with BLE and rises almost linearly with PBerr; "
    "high-BLE links also have a small std of the transmission "
    "count (quality and variability are negatively correlated)"};

void experiment(sim::Simulator& sim, testbed::Testbed& tb, bench::JsonReporter& json) {
  sim.run_until(testbed::weekday_afternoon());

  struct Row {
    int a, b;
    double ble, pberr, u_etx, tx_std, predicted;
  };
  std::vector<Row> rows;
  for (const auto& [a, b] : tb.plc_links()) {
    if (tb.plc_channel().mean_snr_db(a, b, 0, sim.now()) < 4.0) continue;
    bench::warm_link(tb, a, b);
    auto& medium = tb.plc_network_of(a).medium();
    core::SofCapture capture(medium);
    capture.filter(a, b);
    // 1500 B every 75 ms = the paper's 150 kb/s unicast probing.
    net::ProbeSource::Config pcfg;
    pcfg.src = a;
    pcfg.dst = b;
    pcfg.interval = sim::milliseconds(75);
    pcfg.packet_bytes = 1500;
    net::ProbeSource probes(sim, tb.plc_station(a).mac(), pcfg);
    // Average the MM PBerr over the run (a final snapshot right after an
    // error-triggered retune reads near zero).
    sim::RunningStats pberr_acc;
    sim::EventHandle poller;
    std::function<void()> poll = [&] {
      pberr_acc.add(tb.plc_network_of(b).mm_pberr(a, b));
      poller = sim.after(sim::milliseconds(500), poll);
    };
    poller = sim.after(sim::milliseconds(500), poll);
    probes.run(sim.now(), sim.now() + sim::seconds(40));
    sim.run_until(sim.now() + sim::seconds(41));
    poller.cancel();
    // Flush any retransmission backlog before the next link's run.
    tb.plc_station(a).mac().clear_queue();
    sim.run_until(sim.now() + sim::milliseconds(100));

    const auto result = core::UnicastEtxEstimator{}.analyze(capture.records());
    if (result.tx_counts.size() < 100) continue;
    Row r{a, b, 0, 0, 0, 0, 0};
    r.ble = tb.plc_network_of(b).mm_average_ble(a, b);
    r.pberr = pberr_acc.mean();
    r.u_etx = result.u_etx();
    r.tx_std = result.tx_count_stddev();
    r.predicted = core::predicted_u_etx(r.pberr, 3);
    rows.push_back(r);
  }

  std::sort(rows.begin(), rows.end(),
            [](const Row& x, const Row& y) { return x.ble < y.ble; });

  bench::section("U-ETX vs BLE (sorted by BLE; every 5th link)");
  std::printf("%-8s %8s %8s %8s %8s %10s\n", "link", "BLE", "PBerr", "U-ETX",
              "std", "predicted");
  for (std::size_t i = 0; i < rows.size(); i += 5) {
    const Row& r = rows[i];
    std::printf("%2d->%-5d %8.1f %8.3f %8.2f %8.2f %10.2f\n", r.a, r.b, r.ble,
                r.pberr, r.u_etx, r.tx_std, r.predicted);
  }

  bench::section("correlations");
  std::vector<double> ble, pberr, uetx, txstd;
  for (const Row& r : rows) {
    ble.push_back(r.ble);
    pberr.push_back(r.pberr);
    uetx.push_back(r.u_etx);
    txstd.push_back(r.tx_std);
  }
  std::printf("corr(U-ETX, BLE)   = %+.2f (paper: negative)\n",
              json.add("corr_uetx_ble", sim::pearson(uetx, ble), "r"));
  std::printf("corr(U-ETX, PBerr) = %+.2f (paper: ~linear positive)\n",
              json.add("corr_uetx_pberr", sim::pearson(uetx, pberr), "r"));
  std::printf("corr(U-ETX, std)   = %+.2f (paper: higher U-ETX, higher std)\n",
              json.add("corr_uetx_std", sim::pearson(uetx, txstd), "r"));
  const auto fit = sim::fit_line(pberr, uetx);
  std::printf("U-ETX = %.2f * PBerr + %.2f (R^2 %.2f)\n",
              json.add("fit_slope", fit.slope, "ratio"), fit.intercept, fit.r2);
}

}  // namespace

int main() { return bench::run(kFigure, experiment); }
