// Fig. 24 + §8.2: taming metric sensitivity with probe bursts — sending the
// same 150 kb/s probing rate as 20-packet bursts makes the probe frames as
// long as the saturated background frames, collisions lose whole frames
// instead of being captured with partial errors, and BLE stays clean.
#include "bench_util.hpp"

using namespace efd;

namespace {

constexpr bench::Figure kFigure{
    "fig24", "Fig. 24", "burst probing under saturated background traffic",
    "single-packet probes: BLE collapses when the background "
    "activates; 20-packet bursts at the same rate: BLE unaffected"};

void experiment(sim::Simulator& sim, testbed::Testbed& tb, bench::JsonReporter& json) {
  sim.run_until(testbed::weekend_night());
  // Fig. 23's capture-prone pair.
  const auto [a, b, c, d] =
      bench::contention_pair(tb, [](double adv) { return adv > 12.0; });
  std::printf("probe %d->%d, saturated background %d->%d\n\n", a, b, c, d);

  const auto [s1_before, s1_during] = bench::run_contention(tb, a, b, c, d, 400e6, 1);
  const auto [s20_before, s20_during] =
      bench::run_contention(tb, a, b, c, d, 400e6, 20);

  bench::section("BLE of the probed link before -> during background");
  std::printf("%-28s %8.1f -> %8.1f Mb/s  (PBerr %.3f -> %.3f)\n",
              "single-packet probes:", s1_before.ble.mean(), s1_during.ble.mean(),
              s1_before.pberr.mean(), s1_during.pberr.mean());
  std::printf("%-28s %8.1f -> %8.1f Mb/s  (PBerr %.3f -> %.3f)\n",
              "20-packet bursts:", s20_before.ble.mean(), s20_during.ble.mean(),
              s20_before.pberr.mean(), s20_during.pberr.mean());

  std::printf("\nBLE drop: single %.1f vs bursts %.1f Mb/s (paper: bursts "
              "remove the sensitivity)\n",
              json.add("ble_drop_single", s1_before.ble.mean() - s1_during.ble.mean(),
                       "Mb/s"),
              json.add("ble_drop_burst", s20_before.ble.mean() - s20_during.ble.mean(),
                       "Mb/s"));
}

}  // namespace

int main() { return bench::run(kFigure, experiment); }
