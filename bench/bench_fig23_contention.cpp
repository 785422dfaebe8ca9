// Fig. 23 + §8.2: sensitivity of link metrics to background traffic. A link
// sends 150 kb/s probe traffic; at t=200 s a second link activates. On some
// link pairs the capture effect corrupts a few PBs per collision, the
// channel estimator cannot tell those errors from channel noise, and BLE
// collapses while PBerr explodes; other pairs are insensitive.
#include "bench_util.hpp"

using namespace efd;

namespace {

constexpr bench::Figure kFigure{
    "fig23", "Fig. 23", "link-metric sensitivity to background traffic",
    "BLE is insensitive to low-rate background traffic everywhere; "
    "saturated background collapses BLE (and explodes PBerr) on "
    "capture-prone pairs only"};

/// Probe link p[0]->p[1] under low-rate, then saturated, background
/// p[2]->p[3]; the saturated readings go to the JSON under `tag`.
void run_pair(testbed::Testbed& tb, const std::array<int, 4>& p,
              const std::string& tag, bench::JsonReporter& json) {
  for (const double bg_rate : {150e3, 400e6}) {
    const auto [before, during] =
        bench::run_contention(tb, p[0], p[1], p[2], p[3], bg_rate, 1);
    std::printf("%-34s BLE %6.1f -> %6.1f Mb/s   PBerr %.3f -> %.3f\n",
                bg_rate < 1e6 ? "150 kb/s background:" : "saturated background:",
                before.ble.mean(), during.ble.mean(), before.pberr.mean(),
                during.pberr.mean());
    if (bg_rate < 1e6) continue;
    json.add(tag + "_ble_before", before.ble.mean(), "Mb/s");
    json.add(tag + "_ble_during", during.ble.mean(), "Mb/s");
    json.add(tag + "_pberr_during", during.pberr.mean(), "ratio");
  }
}

void experiment(sim::Simulator& sim, testbed::Testbed& tb, bench::JsonReporter& json) {
  // Phases nest under the harness's root "bench" scope: pair selection is
  // "phase.setup", the four run_contention sweeps are "phase.sweep".
  std::array<int, 4> sensitive{}, insensitive{};
  {
    EFD_PROF_SCOPE("phase.setup");
    sim.run_until(testbed::weekend_night());
    // A capture-prone pair: background transmitter electrically close to
    // the probe receiver (large SNR advantage of probe at its receiver),
    // and an insensitive pair (comparable strengths -> full-frame
    // collisions).
    sensitive = bench::contention_pair(tb, [](double adv) { return adv > 12.0; });
    insensitive = bench::contention_pair(
        tb, [](double adv) { return adv < 6.0 && adv > -6.0; });
  }
  std::printf("sensitive pair: probe %d->%d, background %d->%d\n", sensitive[0],
              sensitive[1], sensitive[2], sensitive[3]);
  std::printf("insensitive pair: probe %d->%d, background %d->%d\n\n", insensitive[0],
              insensitive[1], insensitive[2], insensitive[3]);

  EFD_PROF_SCOPE("phase.sweep");
  bench::section("sensitive pair (paper: 6-11 with 1-0 background)");
  run_pair(tb, sensitive, "sensitive", json);
  bench::section("insensitive pair (paper: 0-11 with 1-6 background)");
  run_pair(tb, insensitive, "insensitive", json);
  std::printf("\n(the sensitive receiver captures colliding frames and decodes "
              "them with errored PBs; the estimator cannot distinguish those "
              "from channel errors and lowers BLE)\n");
}

}  // namespace

int main() { return bench::run(kFigure, experiment); }
