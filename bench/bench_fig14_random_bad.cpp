// Fig. 14 + §6.3: random-scale variation of a *bad* link over two weeks —
// hour-of-day BLE profile plus a daily trace of BLE and throughput. Bad
// links swing tens of Mb/s with the building load and their variability
// (std) grows as quality falls.
#include "bench_util.hpp"

using namespace efd;

namespace {

constexpr bench::Figure kFigure{
    "fig14", "Fig. 14", "bad link over 2 weeks: hour-of-day BLE and daily trace",
    "the bad link swings widely with the electrical load (paper: "
    "25-50 Mb/s over the day) and weekends sit above weekdays"};

void experiment(sim::Simulator& sim, testbed::Testbed& tb, bench::JsonReporter& json) {
  sim.run_until(sim::hours(0.1));

  // A weak-but-alive link stands in for the paper's link 2-11.
  int ba = -1, bb = -1;
  double worst = 1e9;
  for (const auto& [a, b] : tb.plc_links()) {
    if (tb.plc_channel().mean_snr_db(a, b, 0, sim.now()) < 7.0) continue;
    const double ble = bench::warmed_ble(tb, a, b);
    if (ble > 15.0 && ble < worst) {
      worst = ble;
      ba = a;
      bb = b;
    }
  }
  std::printf("bad link: %d->%d (BLE %.0f Mb/s)\n", ba, bb, worst);

  // EFD_BENCH_SCALE coarsens the 5 s step, never the 14-day span.
  const sim::Time step = sim::seconds(5.0 / bench::scaled(1.0, 1.0 / 64));
  bench::HourProfile profile;
  std::vector<double> daily_mean;
  sim::RunningStats day_acc;
  const sim::Time start = sim.now();
  const auto sample = [&](sim::Time t, double ble) {
    profile.add(t, ble);
    day_acc.add(ble);
    if ((t - start + step) / sim::days(1) != (t - start) / sim::days(1)) {
      daily_mean.push_back(day_acc.mean());
      day_acc = {};
    }
  };
  bench::trace(tb, ba, bb, 0x14e, sim::days(14), step, sample);

  bench::section("hour-of-day profile (weekdays vs weekends)");
  std::printf("%6s %14s %12s %14s\n", "hour", "weekday BLE", "wd std",
              "weekend BLE");
  for (int h = 0; h < 24; h += 2) {
    std::printf("%5d: %14.1f %12.2f %14.1f\n", h, profile.weekday[h].mean(),
                profile.weekday[h].stddev(), profile.weekend[h].mean());
  }

  bench::section("daily means across the fortnight (BLE and predicted T)");
  std::printf("%6s %10s %14s\n", "day", "BLE Mb/s", "pred. T Mb/s");
  const core::BleCapacityEstimator capacity;
  for (std::size_t d = 0; d < daily_mean.size(); ++d) {
    std::printf("%6zu %10.1f %14.1f\n", d, daily_mean[d],
                capacity.throughput_from_ble(daily_mean[d]));
  }

  std::printf("\nweekday daily swing: %.1f Mb/s (paper: ~25 Mb/s on link 2-11); "
              "weekend swing: %.1f\n",
              json.add("weekday_swing", bench::swing(profile.weekday), "Mb/s"),
              json.add("weekend_swing", bench::swing(profile.weekend), "Mb/s"));
}

}  // namespace

int main() { return bench::run(kFigure, experiment); }
