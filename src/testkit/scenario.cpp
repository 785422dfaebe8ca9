#include "src/testkit/scenario.hpp"

#include <algorithm>
#include <cstdio>

#include "src/sim/rng.hpp"

namespace efd::testkit {

namespace {

const char* traffic_kind_name(Scenario::TrafficSpec::Kind k) {
  return k == Scenario::TrafficSpec::Kind::kSaturatedUdp ? "udp" : "probe";
}

void appendf(std::string& out, const char* fmt, auto... args) {
  char buf[256];
  std::snprintf(buf, sizeof buf, fmt, args...);
  out += buf;
}

grid::ApplianceType draw_appliance_type(sim::Rng& rng) {
  // All ten types, passive stubs included (they are what keeps bad links
  // bad at night and exercise the pure-multipath path of the grid).
  static constexpr grid::ApplianceType kTypes[] = {
      grid::ApplianceType::kLightBank,    grid::ApplianceType::kWorkstation,
      grid::ApplianceType::kMonitor,      grid::ApplianceType::kFridge,
      grid::ApplianceType::kMicrowave,    grid::ApplianceType::kCoffeeMachine,
      grid::ApplianceType::kPrinter,      grid::ApplianceType::kHvac,
      grid::ApplianceType::kPhoneCharger, grid::ApplianceType::kPassiveStub,
  };
  return kTypes[rng.uniform_int(0, 9)];
}

}  // namespace

std::string Scenario::describe() const {
  std::string out;
  appendf(out, "scenario{gen_seed=%llu index=%llu world_seed=%llu\n",
          static_cast<unsigned long long>(gen_seed),
          static_cast<unsigned long long>(index),
          static_cast<unsigned long long>(world_seed));
  appendf(out, "  phy=%s slots=%d beacons=%d fault_pberr=%.3f\n",
          hpav500 ? "hpav500" : "hpav", tone_map_slots, beacons ? 1 : 0,
          fault_pb_error);
  appendf(out, "  start=%.3fh duration=%.3fs\n", start_hours, duration_s);
  appendf(out, "  outlets=%d cables=[", n_outlets);
  for (const Cable& c : cables) {
    appendf(out, "(%d-%d %.1fm +%.1fdB)", c.a, c.b, c.length_m, c.extra_loss_db);
  }
  out += "]\n  appliances=[";
  for (const ApplianceSpec& a : appliances) {
    appendf(out, "(%s@%d #%llu)", grid::to_string(a.type).c_str(), a.outlet,
            static_cast<unsigned long long>(a.seed));
  }
  out += "]\n  stations=[";
  for (const StationSpec& s : stations) {
    appendf(out, "(%d@%d)", s.id, s.outlet);
  }
  out += "]\n  traffic=[";
  for (const TrafficSpec& t : traffic) {
    appendf(out, "(%s %d->%d %.1fMb/s %.1fms x%d %dB ca%d)",
            traffic_kind_name(t.kind), t.src, t.dst, t.rate_mbps,
            t.probe_interval_ms, t.burst_count, t.packet_bytes, t.priority);
  }
  appendf(out, "]\n  hybrid{ifaces=%d pkts=%d loss=%.3f dup=%.3f jitter=%.1fms "
               "gap=%.1fms caps=[",
          hybrid.n_interfaces, hybrid.n_packets, hybrid.loss_prob,
          hybrid.dup_prob, hybrid.reorder_jitter_ms, hybrid.gap_timeout_ms);
  for (double c : hybrid.capacities_mbps) appendf(out, "%.1f ", c);
  out += "]}\n";
  appendf(out,
          "  nan{tx=%d st=%d mode=%d p_remote=%.3f gap=%.1fms reports=%d "
          "jitter=%.1fms etx=[%.2f,%.2f] hops=%d relay=(%d nodes p=%.2f)}}",
          nan.n_transformers, nan.stations_per_transformer, nan.mode,
          nan.p_remote, nan.gap_timeout_ms, nan.n_reports, nan.dup_jitter_ms,
          nan.connect_etx, nan.max_link_etx, nan.max_hops, nan.relay_nodes,
          nan.relay_edge_prob);
  return out;
}

Scenario ScenarioGen::generate(std::uint64_t index) const {
  // One substream per scenario index: scenario i is a pure function of
  // (seed, i), independent of how many scenarios were drawn before it.
  sim::Rng rng = sim::Rng{seed_}.fork(index + 1);
  Scenario s;
  s.gen_seed = seed_;
  s.index = index;
  s.world_seed = seed_ ^ (0x9e3779b97f4a7c15ULL * (index + 1));

  // --- Grid topology: a random tree plus an occasional cross-link --------
  s.n_outlets = static_cast<int>(rng.uniform_int(2, 10));
  for (int node = 1; node < s.n_outlets; ++node) {
    Scenario::Cable c;
    c.a = static_cast<int>(rng.uniform_int(0, node - 1));
    c.b = node;
    c.length_m = rng.uniform(2.0, 45.0);
    // Occasional lumped loss: breaker panels / inter-board basement paths.
    c.extra_loss_db = rng.bernoulli(0.2) ? rng.uniform(3.0, 25.0) : 0.0;
    s.cables.push_back(c);
  }
  if (s.n_outlets >= 4 && rng.bernoulli(0.3)) {
    // A wiring loop, so shortest-path selection gets exercised too.
    Scenario::Cable c;
    c.a = 0;
    c.b = s.n_outlets - 1;
    c.length_m = rng.uniform(10.0, 60.0);
    s.cables.push_back(c);
  }

  const int n_appliances = static_cast<int>(rng.uniform_int(0, 12));
  for (int i = 0; i < n_appliances; ++i) {
    Scenario::ApplianceSpec a;
    a.type = draw_appliance_type(rng);
    a.outlet = static_cast<int>(rng.uniform_int(0, s.n_outlets - 1));
    a.seed = static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 20));
    s.appliances.push_back(a);
  }

  // --- PHY / network -------------------------------------------------------
  s.hpav500 = rng.bernoulli(0.25);
  s.tone_map_slots = static_cast<int>(rng.uniform_int(2, 6));
  s.beacons = rng.bernoulli(0.2);
  s.fault_pb_error = rng.bernoulli(0.15) ? rng.uniform(0.02, 0.35) : 0.0;

  // --- Stations ------------------------------------------------------------
  const int n_stations =
      static_cast<int>(rng.uniform_int(2, std::min(5, s.n_outlets + 1)));
  for (int i = 0; i < n_stations; ++i) {
    Scenario::StationSpec st;
    st.id = i;
    st.outlet = static_cast<int>(rng.uniform_int(0, s.n_outlets - 1));
    s.stations.push_back(st);
  }

  // --- Traffic -------------------------------------------------------------
  const int n_flows = static_cast<int>(rng.uniform_int(1, 3));
  for (int f = 0; f < n_flows; ++f) {
    Scenario::TrafficSpec t;
    t.src = static_cast<int>(rng.uniform_int(0, n_stations - 1));
    do {
      t.dst = static_cast<int>(rng.uniform_int(0, n_stations - 1));
    } while (t.dst == t.src);
    if (rng.bernoulli(0.6)) {
      t.kind = Scenario::TrafficSpec::Kind::kSaturatedUdp;
      t.rate_mbps = rng.uniform(5.0, 250.0);
      t.packet_bytes = static_cast<int>(rng.uniform_int(200, 1500));
    } else {
      t.kind = Scenario::TrafficSpec::Kind::kProbes;
      t.probe_interval_ms = rng.uniform(5.0, 60.0);
      t.burst_count = static_cast<int>(rng.uniform_int(1, 20));
      t.packet_bytes = static_cast<int>(rng.uniform_int(64, 1500));
      if (rng.bernoulli(0.1)) t.dst = -1;  // broadcast probing (§8.1)
    }
    t.priority = static_cast<int>(rng.uniform_int(0, 3));
    s.traffic.push_back(t);
  }
  s.start_hours = rng.uniform(0.0, 24.0 * 7.0);
  s.duration_s = rng.uniform(0.1, 0.5);

  // --- Hybrid fuzz ---------------------------------------------------------
  s.hybrid.n_interfaces = static_cast<int>(rng.uniform_int(2, 4));
  for (int i = 0; i < s.hybrid.n_interfaces; ++i) {
    s.hybrid.capacities_mbps.push_back(
        rng.bernoulli(0.15) ? 0.0 : rng.uniform(1.0, 200.0));
  }
  s.hybrid.n_packets = static_cast<int>(rng.uniform_int(50, 400));
  s.hybrid.loss_prob = rng.bernoulli(0.5) ? rng.uniform(0.0, 0.15) : 0.0;
  s.hybrid.dup_prob = rng.bernoulli(0.3) ? rng.uniform(0.0, 0.05) : 0.0;
  s.hybrid.reorder_jitter_ms = rng.uniform(0.5, 30.0);
  s.hybrid.gap_timeout_ms = rng.uniform(5.0, 60.0);

  // --- NAN diversity / relay fuzz ------------------------------------------
  // Drawn strictly after every pre-existing field, so scenarios generated
  // before these harnesses existed are byte-identical prefixes.
  s.nan.n_transformers = static_cast<int>(rng.uniform_int(2, 4));
  s.nan.stations_per_transformer = static_cast<int>(rng.uniform_int(3, 6));
  s.nan.mode = static_cast<int>(rng.uniform_int(0, 3));
  s.nan.p_remote = rng.uniform(0.0, 0.4);
  s.nan.gap_timeout_ms = rng.uniform(5.0, 40.0);
  s.nan.n_reports = static_cast<int>(rng.uniform_int(30, 150));
  s.nan.dup_jitter_ms = rng.uniform(0.5, 10.0);
  s.nan.connect_etx = rng.uniform(1.5, 4.0);
  s.nan.max_link_etx = rng.uniform(6.0, 12.0);
  s.nan.max_hops = static_cast<int>(rng.uniform_int(1, 4));
  s.nan.relay_nodes = static_cast<int>(rng.uniform_int(4, 10));
  s.nan.relay_edge_prob = rng.uniform(0.3, 0.9);
  return s;
}

namespace {

/// Remove outlet `node` from the scenario: cables re-rooted past it,
/// appliances/stations moved to outlet 0. Keeps the topology a connected
/// tree by collapsing the removed node onto its lowest-numbered neighbor.
Scenario drop_outlet(const Scenario& s, int node) {
  Scenario out = s;
  out.cables.clear();
  // Collapse `node` onto outlet 0, then renumber nodes > node down by one.
  const auto remap = [&](int n) {
    if (n == node) return 0;
    return n > node ? n - 1 : n;
  };
  for (const Scenario::Cable& c : s.cables) {
    Scenario::Cable nc = c;
    nc.a = remap(c.a);
    nc.b = remap(c.b);
    if (nc.a == nc.b) continue;  // collapsed onto itself: drop the cable
    if (nc.a > nc.b) std::swap(nc.a, nc.b);
    out.cables.push_back(nc);
  }
  out.n_outlets = s.n_outlets - 1;
  for (auto& a : out.appliances) a.outlet = remap(a.outlet);
  for (auto& st : out.stations) st.outlet = remap(st.outlet);
  return out;
}

}  // namespace

std::vector<Scenario> shrink_candidates(const Scenario& s) {
  std::vector<Scenario> out;
  // Halve the appliance list before dropping one at a time: big cuts first
  // makes the greedy loop logarithmic on the common path.
  if (s.appliances.size() > 1) {
    Scenario c = s;
    c.appliances.resize(s.appliances.size() / 2);
    out.push_back(std::move(c));
  }
  for (std::size_t i = 0; i < s.appliances.size(); ++i) {
    Scenario c = s;
    c.appliances.erase(c.appliances.begin() + static_cast<std::ptrdiff_t>(i));
    out.push_back(std::move(c));
  }
  if (s.traffic.size() > 1) {
    for (std::size_t i = 0; i < s.traffic.size(); ++i) {
      Scenario c = s;
      c.traffic.erase(c.traffic.begin() + static_cast<std::ptrdiff_t>(i));
      out.push_back(std::move(c));
    }
  }
  // Drop stations that no traffic references (after remapping indices).
  if (s.stations.size() > 2) {
    for (std::size_t i = 0; i < s.stations.size(); ++i) {
      bool referenced = false;
      for (const auto& t : s.traffic) {
        if (t.src == static_cast<int>(i) || t.dst == static_cast<int>(i)) {
          referenced = true;
        }
      }
      if (referenced) continue;
      Scenario c = s;
      c.stations.erase(c.stations.begin() + static_cast<std::ptrdiff_t>(i));
      for (std::size_t j = 0; j < c.stations.size(); ++j) {
        c.stations[j].id = static_cast<int>(j);
      }
      for (auto& t : c.traffic) {
        if (t.src > static_cast<int>(i)) --t.src;
        if (t.dst > static_cast<int>(i)) --t.dst;
      }
      out.push_back(std::move(c));
    }
  }
  // Drop outlets (highest first so station/appliance homes at low indices
  // survive).
  if (s.n_outlets > 2) {
    for (int node = s.n_outlets - 1; node >= 1; --node) {
      out.push_back(drop_outlet(s, node));
    }
  }
  if (s.duration_s > 0.1) {
    Scenario c = s;
    c.duration_s = std::max(0.1, s.duration_s / 2.0);
    out.push_back(std::move(c));
  }
  if (s.fault_pb_error > 0.0) {
    Scenario c = s;
    c.fault_pb_error = 0.0;
    out.push_back(std::move(c));
  }
  if (s.beacons) {
    Scenario c = s;
    c.beacons = false;
    out.push_back(std::move(c));
  }
  if (s.hybrid.n_packets > 10) {
    Scenario c = s;
    c.hybrid.n_packets = s.hybrid.n_packets / 2;
    out.push_back(std::move(c));
  }
  if (s.nan.n_reports > 10) {
    Scenario c = s;
    c.nan.n_reports = s.nan.n_reports / 2;
    out.push_back(std::move(c));
  }
  if (s.nan.max_hops > 1) {
    // Relaying off entirely: only the direct link is a 1-hop path.
    Scenario c = s;
    c.nan.max_hops = 1;
    out.push_back(std::move(c));
  }
  return out;
}

Scenario shrink(Scenario s, const std::function<bool(const Scenario&)>& fails,
                int max_steps) {
  for (int step = 0; step < max_steps; ++step) {
    bool shrunk = false;
    for (Scenario& candidate : shrink_candidates(s)) {
      if (fails(candidate)) {
        s = std::move(candidate);
        shrunk = true;
        break;
      }
    }
    if (!shrunk) return s;
  }
  return s;
}

}  // namespace efd::testkit
