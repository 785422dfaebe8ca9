// Fig. 13 + §6.3: random-scale variation of a *good* link over two weeks —
// hour-of-day BLE averages with standard deviation, weekdays vs weekends.
// Good links barely move (y-span of a few Mb/s) and could be probed every
// minute or hour.
#include "bench_util.hpp"

using namespace efd;

namespace {

constexpr bench::Figure kFigure{
    "fig13", "Fig. 13", "good link over 2 weeks: hour-of-day BLE profile",
    "a good link's BLE spans only a few Mb/s (paper: 88-96) with "
    "tiny error bars; weekends are flatter than weekdays"};

void experiment(sim::Simulator& sim, testbed::Testbed& tb, bench::JsonReporter& json) {
  // A good link that sits just *below* the 150 Mb/s ceiling stands in for
  // the paper's link 1-8 (which rides at 88-96 Mb/s): at the cap the BLE
  // quantizes flat; just below it the daily load rhythm stays visible.
  int ga = 0, gb = 1;
  double best = 0.0;
  for (const auto& [a, b] : tb.plc_links()) {
    const double noon_snr = tb.plc_channel().mean_snr_db(
        a, b, 0, sim::days(1) + sim::hours(12));
    if (noon_snr > best && noon_snr < 30.0) {
      best = noon_snr;
      ga = a;
      gb = b;
    }
  }
  sim.run_until(sim::hours(0.1));
  best = bench::warmed_ble(tb, ga, gb);
  std::printf("good link: %d->%d (BLE %.0f Mb/s)\n", ga, gb, best);

  // EFD_BENCH_SCALE coarsens the 5 s step, never the 14-day span.
  bench::HourProfile p;
  bench::trace(tb, ga, gb, 0x13d, sim::days(14),
               sim::seconds(5.0 / bench::scaled(1.0, 1.0 / 64)),
               [&p](sim::Time t, double ble) { p.add(t, ble); });

  std::printf("%6s %14s %14s %12s %12s\n", "hour", "weekday BLE", "weekend BLE",
              "wd std", "we std");
  for (int h = 0; h < 24; h += 2) {
    std::printf("%5d: %14.1f %14.1f %12.2f %12.2f\n", h, p.weekday[h].mean(),
                p.weekend[h].mean(), p.weekday[h].stddev(),
                p.weekend[h].stddev());
  }
  std::printf("weekday span: %.1f Mb/s; weekend span: %.1f Mb/s\n",
              json.add("weekday_span", bench::swing(p.weekday), "Mb/s"),
              json.add("weekend_span", bench::swing(p.weekend), "Mb/s"));
}

}  // namespace

int main() { return bench::run(kFigure, experiment); }
