// Fig. 20 + §7.4: bandwidth aggregation with the capacity-proportional load
// balancer — per-medium and hybrid throughput on one pair, the round-robin
// baseline, and 600 MB file completion times (WiFi vs hybrid) across pairs.
#include "bench_util.hpp"

#include "src/hybrid/device.hpp"

using namespace efd;

namespace {

constexpr bench::Figure kFigure{
    "fig20", "Fig. 20", "hybrid WiFi+PLC bandwidth aggregation",
    "hybrid ~ sum of the two mediums; round-robin bottlenecks at "
    "~2x the slower medium; hybrid cuts 600 MB download times "
    "drastically vs WiFi alone"};

struct HybridRun {
  double throughput_mbps = 0.0;
  double jitter_ms = 0.0;
  std::uint64_t plc_share = 0, wifi_share = 0;
};

/// Station `s`'s two interfaces, PLC first: the members of its hybrid device.
std::vector<net::Interface*> members(testbed::Testbed& tb, int s) {
  return {&tb.plc_station(s).mac(), &tb.wifi_station(s)};
}

HybridRun run_hybrid(testbed::Testbed& tb, int src, int dst, double seconds,
                     bool round_robin, double plc_cap, double wifi_cap) {
  sim::Simulator& sim = tb.simulator();
  // The paper's round-robin baseline has Click's blocking pull semantics:
  // strict alternation with head-of-line stalls (RoundRobinSplitter);
  // the capacity-proportional balancer pushes probabilistically.
  std::unique_ptr<net::Interface> tx_if;
  hybrid::HybridDevice* tx_dev = nullptr;
  if (round_robin) {
    tx_if = std::make_unique<hybrid::RoundRobinSplitter>(sim, members(tb, src));
  } else {
    auto dev = std::make_unique<hybrid::HybridDevice>(
        sim, members(tb, src),
        std::make_unique<hybrid::CapacityScheduler>(sim::Rng{7}));
    dev->set_capacities({plc_cap, wifi_cap});
    tx_dev = dev.get();
    tx_if = std::move(dev);
  }
  hybrid::HybridDevice rx(sim, members(tb, dst),
                          std::make_unique<hybrid::RoundRobinScheduler>(2));
  net::ThroughputMeter meter;
  net::JitterMeter jitter;
  rx.set_rx_handler([&](const net::Packet& p, sim::Time t) {
    meter.on_packet(p, t);
    jitter.on_packet(p, t);
  });
  rx.start_receiving();

  net::UdpSource::Config cfg;
  cfg.src = src;
  cfg.dst = dst;
  cfg.rate_bps = 400e6;
  net::UdpSource source(sim, *tx_if, cfg);
  const sim::Time start = sim.now();
  source.run(start, start + sim::seconds(seconds));
  sim.run_until(start + sim::seconds(seconds));
  meter.finish(sim.now());
  source.stop();
  // Drain before tearing down.
  sim.run_until(sim.now() + sim::milliseconds(500));

  HybridRun out;
  out.throughput_mbps = meter.average_mbps(sim::seconds(seconds));
  out.jitter_ms = jitter.mean_jitter_ms();
  if (tx_dev != nullptr) {
    out.plc_share = tx_dev->sent_per_interface(0);
    out.wifi_share = tx_dev->sent_per_interface(1);
  }
  return out;
}

/// Time to deliver `megabytes` over an interface pair (saturated source
/// until the sink has the bytes); -1 when 3000 s do not suffice.
double completion_time_s(testbed::Testbed& tb, net::Interface& tx, net::Interface& rx,
                         int src, int dst, double megabytes) {
  sim::Simulator& sim = tb.simulator();
  const auto target = static_cast<std::uint64_t>(megabytes * 1e6);
  std::uint64_t received = 0;
  sim::Time done{};
  rx.set_rx_handler([&](const net::Packet& p, sim::Time t) {
    if (received < target) {
      received += p.size_bytes;
      if (received >= target) done = t;
    }
  });
  net::UdpSource::Config cfg;
  cfg.src = src;
  cfg.dst = dst;
  cfg.rate_bps = 400e6;
  net::UdpSource source(sim, tx, cfg);
  const sim::Time start = sim.now();
  source.run(start, start + sim::seconds(3000));
  while (received < target && sim.now() < start + sim::seconds(3000)) {
    sim.run_until(sim.now() + sim::seconds(5));
  }
  source.stop();
  sim.run_until(sim.now() + sim::milliseconds(500));
  if (received < target) return -1.0;
  return (done - start).seconds();
}

void experiment(sim::Simulator& sim, testbed::Testbed& tb, bench::JsonReporter& json) {
  sim.run_until(testbed::weekday_afternoon());
  const double seconds = bench::scaled(20.0, 0.25);
  const double megabytes = bench::scaled(150.0, 0.25);

  // A pair where both mediums work but differ (the paper's link 0-4).
  int src = -1, dst = -1;
  for (const auto& [a, b] : tb.plc_links()) {
    if (tb.plc_channel().mean_snr_db(a, b, 0, sim.now()) < 18.0) continue;
    const double wifi_snr = tb.wifi().channel().mean_snr_db(a, b);
    if (wifi_snr > 12.0 && wifi_snr < 25.0) {
      src = a;
      dst = b;
      break;
    }
  }
  std::printf("pair %d->%d\n", src, dst);
  bench::warm_link(tb, src, dst);

  const auto plc =
      testbed::measure_plc_throughput(tb, src, dst, sim::seconds(seconds));
  const auto wifi =
      testbed::measure_wifi_throughput(tb, src, dst, sim::seconds(seconds));
  const auto hyb = run_hybrid(tb, src, dst, seconds, false, plc.mean_mbps,
                              wifi.mean_mbps);
  const auto rr = run_hybrid(tb, src, dst, seconds, true, plc.mean_mbps,
                             wifi.mean_mbps);

  bench::section("throughput on one pair (paper: link 0-4)");
  std::printf("%-22s %10s %12s\n", "mode", "T (Mb/s)", "jitter (ms)");
  std::printf("%-22s %10.1f %12s\n", "PLC only",
              json.add("plc_mbps", plc.mean_mbps, "Mb/s"), "-");
  std::printf("%-22s %10.1f %12s\n", "WiFi only",
              json.add("wifi_mbps", wifi.mean_mbps, "Mb/s"), "-");
  std::printf("%-22s %10.1f %12.2f\n", "Hybrid (capacity)",
              json.add("hybrid_mbps", hyb.throughput_mbps, "Mb/s"), hyb.jitter_ms);
  std::printf("%-22s %10.1f %12.2f\n", "Round-robin",
              json.add("round_robin_mbps", rr.throughput_mbps, "Mb/s"), rr.jitter_ms);
  std::printf("sum of mediums: %.1f;  2x min: %.1f Mb/s\n",
              plc.mean_mbps + wifi.mean_mbps,
              2.0 * std::min(plc.mean_mbps, wifi.mean_mbps));
  std::printf("hybrid packet split: PLC %llu / WiFi %llu\n",
              static_cast<unsigned long long>(hyb.plc_share),
              static_cast<unsigned long long>(hyb.wifi_share));

  bench::section(std::to_string(static_cast<int>(megabytes)) +
                 " MB completion times, WiFi vs hybrid (paper: 600 MB)");
  std::printf("%-8s %12s %12s %10s\n", "link", "WiFi (s)", "Hybrid (s)", "gain");
  int printed = 0;
  for (const auto& [a, b] : tb.plc_links()) {
    if (printed >= 10) break;
    if (tb.plc_channel().mean_snr_db(a, b, 0, sim.now()) < 12.0) continue;
    const double wifi_snr = tb.wifi().channel().mean_snr_db(a, b);
    if (wifi_snr < 8.0) continue;
    bench::warm_link(tb, a, b);
    const auto p = testbed::measure_plc_throughput(tb, a, b, sim::seconds(5));
    const auto w = testbed::measure_wifi_throughput(tb, a, b, sim::seconds(5));
    if (w.mean_mbps < 2.0) continue;
    const double wifi_time = completion_time_s(tb, tb.wifi_station(a),
                                               tb.wifi_station(b), a, b, megabytes);

    hybrid::HybridDevice tx(sim, members(tb, a),
                            std::make_unique<hybrid::CapacityScheduler>(sim::Rng{9}));
    hybrid::HybridDevice rx(sim, members(tb, b),
                            std::make_unique<hybrid::RoundRobinScheduler>(2));
    tx.set_capacities({p.mean_mbps, w.mean_mbps});
    // Wire rx to its members; completion_time_s then installs its sink.
    rx.set_rx_handler([](const net::Packet&, sim::Time) {});
    rx.start_receiving();
    const double hybrid_time = completion_time_s(tb, tx, rx, a, b, megabytes);

    std::printf("%2d-%-5d %12.0f %12.0f %9.1fx\n", a, b, wifi_time, hybrid_time,
                wifi_time > 0 && hybrid_time > 0 ? wifi_time / hybrid_time : 0.0);
    ++printed;
  }
  std::printf("(paper: drastic decrease in completion times with both mediums)\n");
}

}  // namespace

int main() { return bench::run(kFigure, experiment); }
