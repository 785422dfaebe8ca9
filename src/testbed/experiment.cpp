#include "src/testbed/experiment.hpp"

#include <chrono>

#include "src/obs/obs.hpp"

namespace efd::testbed {

sim::Time weekday_afternoon() { return sim::days(1) + sim::hours(14); }

sim::Time weekend_night() { return sim::days(5) + sim::hours(3); }

sim::Time measurement_span(sim::Time duration) {
  return duration + sim::milliseconds(100);
}

namespace {

ThroughputResult measure(net::Interface& tx, net::Interface& rx,
                         sim::Simulator& sim, net::StationId src,
                         net::StationId dst, sim::Time duration) {
  EFD_PROF_SCOPE("testbed.measure_throughput");
  const auto wall_start = std::chrono::steady_clock::now();
  net::ThroughputMeter meter;
  rx.set_rx_handler(
      [&meter](const net::Packet& p, sim::Time t) { meter.on_packet(p, t); });

  net::UdpSource::Config cfg;
  cfg.src = src;
  cfg.dst = dst;
  cfg.rate_bps = 400e6;  // far above any link capacity: saturation
  net::UdpSource source(sim, tx, cfg);

  const sim::Time start = sim.now();
  source.run(start, start + duration);
  sim.run_until(start + duration);
  source.stop();
  meter.finish(sim.now());
  // Flush leftover retransmission backlog so the next back-to-back
  // experiment does not contend with this one's tail.
  rx.set_rx_handler([](const net::Packet&, sim::Time) {});
  tx.clear_queue();
  sim.run_until(start + measurement_span(duration));

  // Wall-clock per simulated second: the hot-path health number every
  // scaling PR watches (lower is faster; ratio < 1 means faster than
  // real time).
  // [[maybe_unused]]: EFD_GAUGE_SET does not evaluate its arguments when
  // the observability layer is compiled out (EFD_OBS_ENABLED=0).
  [[maybe_unused]] const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  if (duration.seconds() > 0.0) {
    EFD_GAUGE_SET("sim.wall_sim_ratio", wall_s / duration.seconds());
  }

  ThroughputResult result;
  const auto stats = meter.stats();
  result.mean_mbps = stats.mean();
  result.std_mbps = stats.stddev();
  result.total_mbps = meter.average_mbps(duration);
  return result;
}

}  // namespace

ThroughputResult measure_plc_throughput(Testbed& tb, net::StationId src,
                                        net::StationId dst, sim::Time duration,
                                        PlcGeneration g) {
  return measure(tb.plc_station(src, g).mac(), tb.plc_station(dst, g).mac(),
                 tb.simulator(), src, dst, duration);
}

ThroughputResult measure_wifi_throughput(Testbed& tb, net::StationId src,
                                         net::StationId dst, sim::Time duration) {
  return measure(tb.wifi_station(src), tb.wifi_station(dst), tb.simulator(), src,
                 dst, duration);
}

}  // namespace efd::testbed
