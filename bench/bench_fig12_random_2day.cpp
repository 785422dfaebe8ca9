// Fig. 12 + §6.3: random-scale variation over two days — throughput/BLE and
// PBerr averaged over 1-minute intervals, showing the electrical-load
// rhythm of the building and the 21:00 lights-off step.
#include "bench_util.hpp"

using namespace efd;

namespace {

constexpr bench::Figure kFigure{
    "fig12", "Fig. 12", "random-scale variation over 2 days (1-min averages)",
    "quality follows the electrical load: lower during working "
    "hours, stepping up at the nightly 21:00 lights-off; PBerr "
    "moves inversely"};

/// Prints the link's hourly rows and returns its 21:00 lights-off step.
double run_two_days(testbed::Testbed& tb, int a, int b, const char* label) {
  auto& est = tb.plc_network_of(b).estimator(b, a);
  // EFD_BENCH_SCALE coarsens the 1 s step, never the two-day span.
  const sim::Time step = sim::seconds(1.0 / bench::scaled(1.0, 1.0 / 32));
  bench::section(std::string(label) + ": 2-day trace, hourly means of 1-min "
                 "averages");
  std::printf("%-14s %10s %8s %10s\n", "time", "BLE Mb/s", "PBerr",
              "appliances-on");
  const sim::Time start = tb.simulator().now();
  // Whether the sample at `t` is the last of its minute or hour.
  const auto closes = [&](sim::Time t, sim::Time period) {
    return (t - start + step) / period != (t - start) / period;
  };
  sim::RunningStats minute_ble, hour_ble, hour_pberr;
  double around_9pm_before = 0.0, around_9pm_after = 0.0;
  const auto sample = [&](sim::Time t, double ble) {
    minute_ble.add(ble);
    if (closes(t, sim::minutes(1))) {
      hour_ble.add(minute_ble.mean());
      hour_pberr.add(est.measured_pberr());
      minute_ble = {};
    }
    if (closes(t, sim::hours(1))) {
      const double hour = grid::Calendar::hour_of_day(t);
      std::printf("day %lld %02.0f:00 %10.1f %8.4f %10d\n",
                  static_cast<long long>(grid::Calendar::day_index(t)), hour,
                  hour_ble.mean(), hour_pberr.mean(),
                  tb.grid().appliances_on(t));
      if (std::abs(hour - 20.0) < 0.1) around_9pm_before = hour_ble.mean();
      if (std::abs(hour - 22.0) < 0.1) around_9pm_after = hour_ble.mean();
      hour_ble = {};
      hour_pberr = {};
    }
  };
  bench::trace(tb, a, b, 0x12c, sim::days(2), step, sample);
  std::printf("21:00 lights-off step: BLE %.1f -> %.1f Mb/s "
              "(paper: clear upward step every day at 9 pm)\n",
              around_9pm_before, around_9pm_after);
  return around_9pm_after - around_9pm_before;
}

void experiment(sim::Simulator& sim, testbed::Testbed& tb, bench::JsonReporter& json) {
  // Start Tuesday 15:00, as in the paper's figure (3 PM tick first).
  sim.run_until(sim::days(1) + sim::hours(15));

  // A mid-quality link crossing the office (sensitive to load) and a good
  // link (the paper's 15-16 and 0-1 analogues).
  int mid_a = -1, mid_b = -1, good_a = -1, good_b = -1;
  double best = 0.0;
  for (const auto& [a, b] : tb.plc_links()) {
    if (tb.plc_channel().mean_snr_db(a, b, 0, sim.now()) < 6.0) continue;
    const double ble = bench::warmed_ble(tb, a, b);
    if (mid_a < 0 && ble > 25.0 && ble < 70.0) {
      mid_a = a;
      mid_b = b;
    }
    if (ble > best) {
      best = ble;
      good_a = a;
      good_b = b;
    }
  }
  json.add("lights_off_step_mid",
           run_two_days(tb, mid_a, mid_b, "average link (paper: 15-16)"), "Mb/s");
  json.add("lights_off_step_good",
           run_two_days(tb, good_a, good_b, "good link (paper: 0-1)"), "Mb/s");
}

}  // namespace

int main() { return bench::run(kFigure, experiment); }
