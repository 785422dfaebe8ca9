// Fig. 21 + §8.1: loss rate of broadcast probes vs link throughput and vs
// PBerr, during day and night. Broadcast frames ride the ROBO modulation,
// so losses are ~1e-4 across a wide quality range: broadcast-based ETX is a
// noisy, misleading metric on PLC.
#include "bench_util.hpp"

using namespace efd;

namespace {

constexpr bench::Figure kFigure{
    "fig21", "Fig. 21", "broadcast probe loss vs throughput and PBerr",
    "a wide range of link qualities shows ~1e-4 (or zero) broadcast "
    "loss; only the worst links lose >1e-1; day and night are "
    "barely distinguishable — broadcast ETX says nothing useful"};

struct LinkLoss {
  int src, dst;
  double loss_day, loss_night;
  double throughput, pberr;
};

/// Each station in turn broadcasts probes; every other station of its
/// network counts sequence gaps (the paper's §8.1 protocol).
void broadcast_round(testbed::Testbed& tb, double seconds, bool day,
                     std::vector<LinkLoss>& out) {
  sim::Simulator& sim = tb.simulator();
  for (int src = 0; src < testbed::Testbed::kStations; ++src) {
    std::vector<std::unique_ptr<net::LossMeter>> meters;
    std::vector<int> receivers;
    for (int rx = 0; rx < testbed::Testbed::kStations; ++rx) {
      if (rx == src || !tb.same_plc_network(src, rx)) continue;
      receivers.push_back(rx);
      meters.push_back(std::make_unique<net::LossMeter>());
      net::LossMeter* meter = meters.back().get();
      tb.plc_station(rx).mac().set_rx_handler(
          [meter](const net::Packet& p, sim::Time t) { meter->on_packet(p, t); });
    }
    net::ProbeSource::Config cfg;
    cfg.src = src;
    cfg.dst = net::kBroadcast;
    cfg.interval = sim::milliseconds(20);  // 50 probes/s to resolve ~1e-3
    cfg.packet_bytes = 1500;
    net::ProbeSource probes(sim, tb.plc_station(src).mac(), cfg);
    probes.run(sim.now(), sim.now() + sim::seconds(seconds));
    sim.run_until(sim.now() + sim::seconds(seconds) + sim::milliseconds(200));

    for (std::size_t i = 0; i < receivers.size(); ++i) {
      const int rx = receivers[i];
      auto it = std::find_if(out.begin(), out.end(), [&](const LinkLoss& l) {
        return l.src == src && l.dst == rx;
      });
      if (it == out.end()) {
        out.push_back({src, rx, 0.0, 0.0, 0.0, 0.0});
        it = out.end() - 1;
      }
      (day ? it->loss_day : it->loss_night) = meters[i]->loss_rate();
    }
  }
}

void experiment(sim::Simulator& sim, testbed::Testbed& tb, bench::JsonReporter& json) {
  const double seconds = bench::scaled(60.0, 0.25);
  const auto saturation = sim::seconds(bench::scaled(4.0, 0.25));
  std::vector<LinkLoss> links;
  // Night round.
  sim.run_until(testbed::weekend_night());
  broadcast_round(tb, seconds, /*day=*/false, links);
  // Day round.
  sim.run_until(sim::days(8) + sim::hours(14));
  broadcast_round(tb, seconds, /*day=*/true, links);

  // Unicast quality context: throughput + PBerr per link (night).
  sim.run_until(sim.now() + sim::hours(1));
  for (auto& l : links) {
    if (tb.plc_channel().mean_snr_db(l.src, l.dst, 0, sim.now()) < 2.0) continue;
    bench::warm_link(tb, l.src, l.dst);
    l.throughput =
        testbed::measure_plc_throughput(tb, l.src, l.dst, saturation).mean_mbps;
    l.pberr = tb.plc_network_of(l.dst).mm_pberr(l.src, l.dst);
  }

  bench::section("loss rate vs link throughput (bucket means)");
  std::printf("%-14s %14s %14s %8s\n", "T bucket", "night loss", "day loss",
              "links");
  const double edges[] = {0, 10, 25, 40, 55, 70, 95};
  for (std::size_t e = 0; e + 1 < std::size(edges); ++e) {
    sim::RunningStats day, night;
    for (const auto& l : links) {
      if (l.throughput < edges[e] || l.throughput >= edges[e + 1]) continue;
      day.add(l.loss_day);
      night.add(l.loss_night);
    }
    if (day.count() == 0) continue;
    std::printf("%4.0f-%-6.0f    %14.5f %14.5f %8zu\n", edges[e], edges[e + 1],
                night.mean(), day.mean(), day.count());
  }

  bench::section("discriminative power");
  int healthy_low_loss = 0, healthy = 0, dead_links = 0;
  for (const auto& l : links) {
    if (l.throughput > 10.0) {
      ++healthy;
      if (l.loss_night < 1e-2) ++healthy_low_loss;
    }
    if (l.throughput <= 1.0 && l.loss_night > 0.1) ++dead_links;
  }
  std::printf("healthy links (>10 Mb/s) with <1%% broadcast loss: %.0f/%.0f\n",
              json.add("healthy_low_loss_links", healthy_low_loss, "links"),
              json.add("healthy_links", healthy, "links"));
  std::printf("only effectively dead links show >10%% loss: %.0f\n",
              json.add("dead_lossy_links", dead_links, "links"));
  std::printf("(paper: low loss rates carry no information about quality; high "
              "loss only flags the worst links)\n");
}

}  // namespace

int main() { return bench::run(kFigure, experiment); }
