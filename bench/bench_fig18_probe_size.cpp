// Fig. 18 + §7.2: probe-packet size matters — 1 probe/s with payloads of at
// most one PB (<= 520 B) clamps the estimated capacity at the single-PB
// symbol rate R1sym = 520*8/Tsym ≈ 89.4 Mb/s; 521 B (2 PBs) and 1300 B
// escape the clamp.
#include "bench_util.hpp"

using namespace efd;

namespace {

constexpr bench::Figure kFigure{
    "fig18", "Fig. 18", "estimated capacity vs probe size (1 pkt/s)",
    "200 B and 520 B probes converge to ~89.4 Mb/s and stay there; "
    "521 B and 1300 B probes converge to the true capacity"};

void experiment(sim::Simulator& sim, testbed::Testbed& tb, bench::JsonReporter& json) {
  sim.run_until(testbed::weekend_night());

  // A high-capacity link, like the paper's 11-6 (true capacity ~120+).
  int la = -1, lb = -1;
  for (const auto& [a, b] : tb.plc_links()) {
    if (tb.plc_channel().mean_snr_db(a, b, 0, sim.now()) > 35.0) {
      la = a;
      lb = b;
      break;
    }
  }
  std::printf("link %d->%d; R1sym = %.1f Mb/s\n", la, lb,
              tb.plc_channel().phy().single_pb_symbol_rate_mbps());

  bench::section("estimated capacity (Mb/s) vs time, by probe size");
  const std::size_t sizes[] = {200, 520, 521, 1300};
  const double checkpoints_s[] = {200, 1000, 3000, 6000, 9800};
  std::printf("%8s", "size");
  for (double cp : checkpoints_s) std::printf(" %9.0f", cp);
  std::printf("\n");
  for (std::size_t size : sizes) {
    auto sampler = bench::probe_after_reset(tb, la, lb, 0x18b, 1.0, size);
    const sim::Time start = sim.now();
    const auto trace =
        sampler.run(start, start + sim::seconds(10000), sim::seconds(20));
    std::printf("%7zuB", size);
    std::size_t ci = 0;
    double last = 0.0;
    for (const auto& s : trace) {
      if (ci < std::size(checkpoints_s) &&
          (s.t - start).seconds() >= checkpoints_s[ci]) {
        std::printf(" %9.1f", s.ble_mbps);
        last = s.ble_mbps;
        ++ci;
      }
    }
    std::printf("\n");
    json.add("ble_" + std::to_string(size) + "B", last, "Mb/s");
  }
  std::printf("\n(520 B fits one PB: with single-PB, single-symbol frames the "
              "rate adaptation has no airtime gradient above R1sym and "
              "converges there; 521 B needs a second PB and escapes)\n");
}

}  // namespace

int main() { return bench::run(kFigure, experiment); }
