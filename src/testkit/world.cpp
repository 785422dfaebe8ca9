#include "src/testkit/world.hpp"

#include <bit>
#include <string>

#include "src/obs/obs.hpp"
#include "src/sim/fnv1a.hpp"

namespace efd::testkit {

namespace {

/// The shared FNV-1a, plus the trace's non-integer field types.
struct TraceHash : sim::Fnv1a64 {
  using Fnv1a64::mix;
  void mix(double v) { mix(std::bit_cast<std::uint64_t>(v)); }
  void mix(sim::Time t) { mix(t.ns()); }
  void mix(bool v) { mix(static_cast<std::uint64_t>(v)); }
};

}  // namespace

std::uint64_t RunTrace::digest() const {
  TraceHash f;
  f.mix(static_cast<std::uint64_t>(sofs.size()));
  for (const plc::SofRecord& s : sofs) {
    f.mix(s.start);
    f.mix(s.end);
    f.mix(s.src);
    f.mix(s.dst);
    f.mix(s.slot);
    f.mix(s.ble_mbps);
    f.mix(s.n_pbs);
    f.mix(s.n_symbols);
    f.mix(s.robo);
    f.mix(s.sound);
    f.mix(s.broadcast);
  }
  f.mix(static_cast<std::uint64_t>(delivered.size()));
  for (const DeliveredPacket& d : delivered) {
    f.mix(d.at);
    f.mix(d.flow_id);
    f.mix(static_cast<std::uint64_t>(d.seq));
    f.mix(d.when);
  }
  f.mix(static_cast<std::uint64_t>(dc_samples.size()));
  for (int dc : dc_samples) f.mix(dc);
  f.mix(offered);
  for (std::uint64_t n : offered_per_flow) f.mix(n);
  f.mix(collisions);
  f.mix(frames);
  f.mix(beacons);
  for (double v : link_ble_mbps) f.mix(v);
  for (double v : link_pberr) f.mix(v);
  return f.h;
}

ScenarioWorld::ScenarioWorld(const Scenario& scenario, sim::Simulator& sim)
    : scenario_(scenario), sim_(sim) {
  EFD_PROF_SCOPE("testkit.world_build");
  for (int i = 0; i < scenario_.n_outlets; ++i) {
    grid_.add_node("o" + std::to_string(i));
  }
  for (const Scenario::Cable& c : scenario_.cables) {
    grid_.add_cable(c.a, c.b, c.length_m, c.extra_loss_db);
  }
  for (const Scenario::ApplianceSpec& a : scenario_.appliances) {
    grid_.add_appliance(grid::make_appliance(a.type, a.outlet, a.seed));
  }

  plc::PhyParams phy =
      scenario_.hpav500 ? plc::PhyParams::hpav500() : plc::PhyParams::hpav();
  phy.tone_map_slots = scenario_.tone_map_slots;
  channel_ = std::make_unique<plc::PlcChannel>(grid_, phy);
  network_ = std::make_unique<plc::PlcNetwork>(
      sim_, *channel_, sim::Rng{scenario_.world_seed}, plc::PlcNetwork::Config{});
  for (const Scenario::StationSpec& st : scenario_.stations) {
    channel_->attach_station(st.id, st.outlet);
    network_->add_station(st.id, st.outlet);
  }
  if (scenario_.beacons) network_->medium().enable_beacons();
  if (scenario_.fault_pb_error > 0.0) {
    network_->medium().set_fault_pb_error(scenario_.fault_pb_error);
  }

  // Record every SoF, and sample each MAC's deferral counter at each SoF —
  // the cheapest deterministic probe point the MAC state machine exposes.
  sniffer_ = network_->medium().add_sniffer([this](const plc::SofRecord& sof) {
    trace_.sofs.push_back(sof);
    for (const Scenario::StationSpec& st : scenario_.stations) {
      trace_.dc_samples.push_back(
          network_->station(st.id).mac().deferral_counter());
    }
  });
  sniffer_added_ = true;

  for (const Scenario::StationSpec& st : scenario_.stations) {
    const net::StationId at = st.id;
    network_->station(at).mac().set_rx_handler(
        [this, at](const net::Packet& p, sim::Time when) {
          trace_.delivered.push_back({at, p.flow_id, p.seq, when});
        });
  }

  int flow_id = 0;
  for (const Scenario::TrafficSpec& t : scenario_.traffic) {
    net::Interface& src_mac =
        network_->station(scenario_.stations[static_cast<std::size_t>(t.src)].id)
            .mac();
    const net::StationId src_id =
        scenario_.stations[static_cast<std::size_t>(t.src)].id;
    const net::StationId dst_id =
        t.dst < 0 ? net::kBroadcast
                  : scenario_.stations[static_cast<std::size_t>(t.dst)].id;
    if (t.kind == Scenario::TrafficSpec::Kind::kSaturatedUdp) {
      net::UdpSource::Config cfg;
      cfg.rate_bps = t.rate_mbps * 1e6;
      cfg.packet_bytes = static_cast<std::size_t>(t.packet_bytes);
      cfg.src = src_id;
      cfg.dst = dst_id;
      cfg.flow_id = flow_id;
      cfg.priority = t.priority;
      flow_source_.emplace_back(true, udp_sources_.size());
      udp_sources_.push_back(
          std::make_unique<net::UdpSource>(sim_, src_mac, cfg));
    } else {
      net::ProbeSource::Config cfg;
      cfg.interval = sim::milliseconds(t.probe_interval_ms);
      cfg.burst_count = t.burst_count;
      cfg.packet_bytes = static_cast<std::size_t>(t.packet_bytes);
      cfg.src = src_id;
      cfg.dst = dst_id;
      cfg.flow_id = flow_id;
      cfg.priority = t.priority;
      flow_source_.emplace_back(false, probe_sources_.size());
      probe_sources_.push_back(
          std::make_unique<net::ProbeSource>(sim_, src_mac, cfg));
    }
    ++flow_id;
  }
}

ScenarioWorld::~ScenarioWorld() {
  if (sniffer_added_) network_->medium().remove_sniffer(sniffer_);
}

RunTrace ScenarioWorld::run() {
  EFD_PROF_SCOPE("testkit.scenario_run");
  const sim::Time start = scenario_.start_time();
  const sim::Time end = start + scenario_.duration();
  sim_.run_until(start);
  for (auto& s : udp_sources_) s->run(start, end);
  for (auto& s : probe_sources_) s->run(start, end);
  // Drain window: in-flight frames, SACK exchanges and the retransmission
  // tail complete before the trace is frozen.
  sim_.run_until(end + sim::milliseconds(50));

  for (const auto& [is_udp, idx] : flow_source_) {
    const std::uint64_t n = is_udp ? udp_sources_[idx]->offered_packets()
                                   : probe_sources_[idx]->sent();
    trace_.offered_per_flow.push_back(n);
    trace_.offered += n;
  }
  trace_.collisions = network_->medium().collisions();
  trace_.frames = network_->medium().frames_sent();
  trace_.beacons = network_->medium().beacons_sent();
  for (const Scenario::TrafficSpec& t : scenario_.traffic) {
    if (t.dst < 0) continue;  // broadcast: no directed estimator to query
    const net::StationId src_id =
        scenario_.stations[static_cast<std::size_t>(t.src)].id;
    const net::StationId dst_id =
        scenario_.stations[static_cast<std::size_t>(t.dst)].id;
    trace_.link_ble_mbps.push_back(network_->mm_average_ble(src_id, dst_id));
    trace_.link_pberr.push_back(network_->mm_pberr(src_id, dst_id));
  }
  return trace_;
}

}  // namespace efd::testkit
