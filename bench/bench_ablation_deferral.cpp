// Ablation (§2.2): the IEEE 1901 deferral counter vs plain 802.11-style
// backoff. 1901 stations escalate their contention window after merely
// *sensing* the medium busy, spreading stations without paying collisions;
// 802.11 only escalates after a collision.
#include "bench_util.hpp"

#include "src/plc/network.hpp"

using namespace efd;

namespace {

constexpr bench::Figure kFigure{
    "ablation_deferral", "Ablation: 1901 deferral counter", "vs plain 802.11 backoff",
    "the deferral counter trades a little short-term fairness for "
    "fewer collisions under load (the paper's [19]/[21] analyses)"};

struct Result {
  double aggregate_mbps = 0.0;
  double collision_rate = 0.0;
  double jitter_ms = 0.0;
};

Result run(int n_flows, bool disable_deferral) {
  sim::Simulator sim;
  grid::PowerGrid grid;
  const int strip = grid.add_node("strip");
  plc::PlcChannel channel(grid, plc::PhyParams::hpav());
  plc::PlcNetwork::Config cfg;
  cfg.mac.disable_deferral = disable_deferral;
  plc::PlcNetwork network(sim, channel, sim::Rng{17}, cfg);
  for (int i = 0; i < 2 * n_flows; ++i) {
    const int outlet = grid.add_node("o" + std::to_string(i));
    grid.add_cable(strip, outlet, 2.0 + i);
    channel.attach_station(i, outlet);
    network.add_station(i, outlet);
  }

  std::vector<std::unique_ptr<net::UdpSource>> sources;
  std::vector<std::unique_ptr<net::ThroughputMeter>> meters;
  net::JitterMeter jitter;
  for (int i = 0; i < n_flows; ++i) {
    meters.push_back(std::make_unique<net::ThroughputMeter>());
    net::ThroughputMeter* meter = meters.back().get();
    const bool first = i == 0;
    network.station(i + n_flows)
        .mac()
        .set_rx_handler([meter, first, &jitter](const net::Packet& p, sim::Time t) {
          meter->on_packet(p, t);
          if (first) jitter.on_packet(p, t);
        });
    net::UdpSource::Config scfg;
    scfg.src = i;
    scfg.dst = i + n_flows;
    scfg.rate_bps = 400e6;
    scfg.flow_id = i;
    sources.push_back(
        std::make_unique<net::UdpSource>(sim, network.station(i).mac(), scfg));
    sources.back()->run(sim::Time{}, sim::seconds(10));
  }
  sim.run_until(sim::seconds(10));

  Result r;
  for (auto& m : meters) r.aggregate_mbps += m->average_mbps(sim::seconds(10));
  r.collision_rate = static_cast<double>(network.medium().collisions()) /
                     static_cast<double>(network.medium().frames_sent());
  r.jitter_ms = jitter.mean_jitter_ms();
  return r;
}

void experiment(bench::JsonReporter& json) {
  std::printf("%-8s | %28s | %28s\n", "", "IEEE 1901 (deferral)", "802.11-style");
  std::printf("%-8s | %9s %9s %8s | %9s %9s %8s\n", "flows", "Mb/s", "coll/frm",
              "jit ms", "Mb/s", "coll/frm", "jit ms");
  for (int flows : {1, 2, 4, 8}) {
    const Result d = run(flows, false);
    const Result n = run(flows, true);
    const std::string tag = "_" + std::to_string(flows) + "flows";
    std::printf("%-8d | %9.1f %9.3f %8.2f | %9.1f %9.3f %8.2f\n", flows,
                json.add("mbps_1901" + tag, d.aggregate_mbps, "Mb/s"),
                json.add("collisions_1901" + tag, d.collision_rate, "ratio"),
                d.jitter_ms, json.add("mbps_80211" + tag, n.aggregate_mbps, "Mb/s"),
                json.add("collisions_80211" + tag, n.collision_rate, "ratio"),
                n.jitter_ms);
  }
  std::printf("\n(collision rate grows faster without the deferral counter as "
              "the number of saturated stations rises)\n");
}

}  // namespace

int main() { return bench::run(kFigure, experiment); }
