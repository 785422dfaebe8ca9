#include "src/testbed/experiment.hpp"

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
