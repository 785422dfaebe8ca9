#include "src/testkit/invariants.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>

#include "src/grid/mains.hpp"
#include "src/hybrid/reorder.hpp"
#include "src/hybrid/routing.hpp"
#include "src/hybrid/scheduler.hpp"
#include "src/sim/rng.hpp"
#include "src/testkit/reference.hpp"

namespace efd::testkit {

namespace {

void report(std::vector<Violation>& out, const char* invariant, const char* fmt,
            auto... args) {
  char buf[256];
  std::snprintf(buf, sizeof buf, fmt, args...);
  out.push_back({invariant, buf});
}

double mean(std::span<const double> v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

// --- 1. grid: attenuation monotone in distance at fixed taps ---------------
//
// Raw scenario grids rarely contain comparable outlet pairs (per-link drift,
// notch phases and tap counts all differ), so the checker derives an
// auxiliary chain grid from the scenario: the same appliance mix, but every
// appliance plugged into node 0 so its multipath contribution is identical
// for every receiver along the chain, and 40 m segments so each step's cable
// plus tap loss (> 2 dB) strictly dominates the worst-case +-1.2 dB drift
// difference between links. Mean attenuation from node 0 must then be
// non-decreasing along the chain.
void check_attenuation_monotone(const ScenarioWorld& world,
                                std::vector<Violation>& out) {
  constexpr int kChain = 6;
  grid::PowerGrid chain;
  for (int i = 0; i < kChain; ++i) chain.add_node("c" + std::to_string(i));
  for (int i = 1; i < kChain; ++i) chain.add_cable(i - 1, i, 40.0);
  for (const Scenario::ApplianceSpec& a : world.scenario().appliances) {
    chain.add_appliance(grid::make_appliance(a.type, 0, a.seed));
  }
  const grid::CarrierBand& band = world.channel().phy().band;
  const sim::Time t = world.scenario().start_time();
  double prev = -1e9;
  for (int k = 1; k < kChain; ++k) {
    const double m = mean(chain.attenuation_db(0, k, band, t));
    if (m < prev) {
      report(out, "attenuation-monotone",
             "chain node %d mean att %.3f dB < node %d mean att %.3f dB", k, m,
             k - 1, prev);
    }
    prev = m;
  }
}

// --- 2. grid: noise PSD mains-periodic -------------------------------------
void check_noise_mains_periodic(const ScenarioWorld& world,
                                std::vector<Violation>& out) {
  const grid::PowerGrid& g = world.grid();
  const plc::PhyParams& phy = world.channel().phy();
  const sim::Time t0 = world.scenario().start_time();
  const sim::Time t1 = t0 + 2 * grid::Mains::cycle();
  for (int id = 0; id < g.appliance_count(); ++id) {
    if (g.appliance_on(id, t0) != g.appliance_on(id, t1)) return;  // toggled
  }
  for (const Scenario::StationSpec& st : world.scenario().stations) {
    for (int slot : {0, phy.tone_map_slots - 1}) {
      const auto a = g.noise_psd_db(st.outlet, phy.band, t0, slot, phy.tone_map_slots);
      const auto b = g.noise_psd_db(st.outlet, phy.band, t1, slot, phy.tone_map_slots);
      for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i] != b[i]) {
          report(out, "noise-mains-periodic",
                 "outlet %d slot %d carrier %zu: %.9f dB at t vs %.9f dB two "
                 "mains cycles later (same appliance state)",
                 st.outlet, slot, i, a[i], b[i]);
          return;
        }
      }
    }
  }
}

// --- 3. grid: attenuation finite and sane ----------------------------------
void check_attenuation_finite(const ScenarioWorld& world,
                              std::vector<Violation>& out) {
  const grid::PowerGrid& g = world.grid();
  const plc::PhyParams& phy = world.channel().phy();
  const sim::Time t = world.scenario().start_time();
  const auto& stations = world.scenario().stations;
  for (const auto& a : stations) {
    for (const auto& b : stations) {
      if (a.outlet == b.outlet) continue;
      for (double v : g.attenuation_db(a.outlet, b.outlet, phy.band, t)) {
        // The slow drift term can dip 0.6 dB below the deterministic loss,
        // so very short cables may graze zero; anything below -1 dB would
        // mean real amplification, anything non-finite a poisoned path sum.
        if (!std::isfinite(v) || v < -1.0 || v > 1000.0) {
          report(out, "attenuation-finite", "att(%d->%d) = %.3f dB out of range",
                 a.outlet, b.outlet, v);
          return;
        }
      }
    }
  }
}

/// Estimators with tone maps, one per unicast traffic flow: (rx, tx, est*).
struct LinkEstimator {
  net::StationId tx;
  net::StationId rx;
  plc::ChannelEstimator* est;
};

std::vector<LinkEstimator> link_estimators(ScenarioWorld& world) {
  std::vector<LinkEstimator> links;
  std::set<std::pair<net::StationId, net::StationId>> seen;
  for (const Scenario::TrafficSpec& t : world.scenario().traffic) {
    if (t.dst < 0) continue;
    const auto& stations = world.scenario().stations;
    const net::StationId tx = stations[static_cast<std::size_t>(t.src)].id;
    const net::StationId rx = stations[static_cast<std::size_t>(t.dst)].id;
    if (!seen.insert({tx, rx}).second) continue;
    plc::ChannelEstimator& est = world.network().estimator(rx, tx);
    if (est.has_tone_maps()) links.push_back({tx, rx, &est});
  }
  return links;
}

// --- 4. plc: per-carrier bits within BPSK..1024-QAM bounds -----------------
void check_carrier_bits(ScenarioWorld& world, std::vector<Violation>& out) {
  const plc::PhyParams& phy = world.channel().phy();
  for (const LinkEstimator& l : link_estimators(world)) {
    for (const plc::ToneMap& tm : l.est->tone_maps()) {
      if (static_cast<int>(tm.carriers().size()) != phy.band.n_carriers) {
        report(out, "carrier-bits-bounds",
               "link %d->%d map %u: %zu carriers, band has %d", l.tx, l.rx,
               tm.id(), tm.carriers().size(), phy.band.n_carriers);
        return;
      }
      for (plc::Modulation m : tm.carriers()) {
        const int bits = plc::bits_per_symbol(m);
        if (bits < 0 || bits > 10) {
          report(out, "carrier-bits-bounds",
                 "link %d->%d map %u: carrier loads %d bits (BPSK..1024-QAM "
                 "is 0..10)",
                 l.tx, l.rx, tm.id(), bits);
          return;
        }
      }
    }
  }
}

// --- 5. plc: BLE matches Eq. (1) recomputed from the tone map --------------
void check_ble_eq1(ScenarioWorld& world, const InvariantOptions& opts,
                   std::vector<Violation>& out) {
  const plc::PhyParams& phy = world.channel().phy();
  // The channel's ROBO map is invariant 8's.
  for (const LinkEstimator& l : link_estimators(world)) {
    for (const plc::ToneMap& tm : l.est->tone_maps()) {
      const double want = ref::ble_mbps(tm, phy) * opts.inject_ble_scale;
      const double got = tm.ble_mbps();
      if (std::abs(got - want) > 1e-9 * std::max(1.0, std::abs(want))) {
        report(out, "ble-eq1",
               "link %d->%d slot map %u: ble_mbps %.9f but Eq.(1) recompute "
               "gives %.9f",
               l.tx, l.rx, tm.id(), got, want);
      }
    }
  }
}

// --- 6. plc: PB error probabilities in [0, 1] ------------------------------
void check_pberr_range(ScenarioWorld& world, const InvariantOptions& opts,
                       std::vector<Violation>& out) {
  const sim::Time now = world.sim().now();
  auto in_range = [&](double p, const char* what, net::StationId tx,
                      net::StationId rx) {
    const double v = p + opts.inject_pberr_offset;
    if (!(v >= 0.0 && v <= 1.0)) {
      report(out, "pberr-range", "link %d->%d %s = %.6f outside [0,1]", tx, rx,
             what, v);
    }
  };
  for (const LinkEstimator& l : link_estimators(world)) {
    in_range(l.est->measured_pberr(), "measured_pberr", l.tx, l.rx);
    int slot = 0;
    for (const plc::ToneMap& tm : l.est->tone_maps()) {
      in_range(tm.expected_pberr(), "expected_pberr", l.tx, l.rx);
      in_range(world.channel().pb_error_probability(tm, l.tx, l.rx, slot, now),
               "channel pberr", l.tx, l.rx);
      ++slot;
    }
  }
}

// --- 7. plc: estimator never exceeds channel capacity ----------------------
//
// The estimator gambles below the safe margin (the goodput ladder) on
// Gaussian-perturbed SNR, so per-carrier comparisons against the true
// channel fire spuriously; the sound bound is aggregate: each slot's BLE
// must stay below (a) the rate of a reference map built from the TRUE static
// SNR with a very generous -15 dB margin and (b) the hardware ceiling of
// 10 bits on every carrier.
void check_estimator_capacity(ScenarioWorld& world, std::vector<Violation>& out) {
  const plc::PhyParams& phy = world.channel().phy();
  const sim::Time now = world.sim().now();
  const double hw_ceiling =
      10.0 * phy.band.n_carriers * phy.fec_rate / phy.symbol.us();
  for (const LinkEstimator& l : link_estimators(world)) {
    for (int slot = 0;
         slot < static_cast<int>(l.est->tone_maps().size()); ++slot) {
      const auto& snr = world.channel().static_snr_db(l.tx, l.rx, slot, now);
      const double reference_rate =
          plc::ToneMap::from_snr(snr, -15.0, phy, 0.0, 0).phy_rate_mbps();
      const double ble = l.est->tone_maps()[static_cast<std::size_t>(slot)].ble_mbps();
      const double bound = std::min(1.0001 * reference_rate + 1e-6, hw_ceiling + 1e-6);
      if (ble > bound) {
        report(out, "estimator-capacity",
               "link %d->%d slot %d: BLE %.3f Mb/s exceeds capacity bound "
               "%.3f Mb/s (reference rate %.3f, hw ceiling %.3f)",
               l.tx, l.rx, slot, ble, bound, reference_rate, hw_ceiling);
      }
    }
  }
}

// --- 8. plc: the ROBO map is the robust default it claims to be ------------
void check_robo_map(ScenarioWorld& world, std::vector<Violation>& out) {
  const plc::PhyParams& phy = world.channel().phy();
  const plc::ToneMap& robo = world.channel().robo();
  if (!robo.is_robo() || robo.robo_repetitions() < 2) {
    report(out, "robo-map", "ROBO map reports %d repetitions",
           robo.robo_repetitions());
    return;
  }
  if (robo.expected_pberr() != 0.0) {
    report(out, "robo-map", "ROBO map carries expected_pberr %.6f",
           robo.expected_pberr());
  }
  const double want = ref::ble_mbps(robo, phy);
  if (std::abs(robo.ble_mbps() - want) > 1e-9 * std::max(1.0, want)) {
    report(out, "robo-map", "ROBO BLE %.6f != Eq.(1) recompute %.6f",
           robo.ble_mbps(), want);
  }
}

// --- 9. mac: delivery conservation (no SACK-completed undelivered PBs) -----
void check_sack_delivery(const ScenarioWorld& world, const RunTrace& trace,
                         std::vector<Violation>& out) {
  const auto& traffic = world.scenario().traffic;
  const auto& stations = world.scenario().stations;
  std::map<int, std::uint64_t> delivered_per_flow;
  std::set<std::tuple<net::StationId, int, std::uint32_t>> seen;
  for (const DeliveredPacket& d : trace.delivered) {
    ++delivered_per_flow[d.flow_id];
    if (!seen.insert({d.at, d.flow_id, d.seq}).second) {
      report(out, "sack-delivery",
             "flow %d seq %u delivered twice at station %d", d.flow_id, d.seq,
             d.at);
      return;
    }
    if (d.flow_id < 0 || d.flow_id >= static_cast<int>(traffic.size())) {
      report(out, "sack-delivery", "delivery with unknown flow id %d", d.flow_id);
      return;
    }
    const Scenario::TrafficSpec& t = traffic[static_cast<std::size_t>(d.flow_id)];
    if (t.dst >= 0 &&
        d.at != stations[static_cast<std::size_t>(t.dst)].id) {
      report(out, "sack-delivery",
             "unicast flow %d delivered at station %d, destination is %d",
             d.flow_id, d.at, stations[static_cast<std::size_t>(t.dst)].id);
      return;
    }
  }
  for (const auto& [flow, n] : delivered_per_flow) {
    const std::uint64_t offered =
        flow < static_cast<int>(trace.offered_per_flow.size())
            ? trace.offered_per_flow[static_cast<std::size_t>(flow)]
            : 0;
    // A unicast packet is handed up exactly once; broadcast at most once per
    // receiving station.
    const std::uint64_t receivers =
        traffic[static_cast<std::size_t>(flow)].dst < 0
            ? world.scenario().stations.size() - 1
            : 1;
    if (n > offered * receivers) {
      report(out, "sack-delivery",
             "flow %d delivered %llu packets but only %llu were offered "
             "(x%llu receivers)",
             flow, static_cast<unsigned long long>(n),
             static_cast<unsigned long long>(offered),
             static_cast<unsigned long long>(receivers));
    }
  }
}

// --- 10. mac: deferral counter never negative ------------------------------
void check_deferral_counter(const RunTrace& trace, const InvariantOptions& opts,
                            std::vector<Violation>& out) {
  for (int dc : trace.dc_samples) {
    const int v = dc - opts.inject_dc_offset;
    if (v < 0 || v > 15) {
      report(out, "deferral-counter", "sampled deferral counter %d outside [0,15]", v);
      return;
    }
  }
}

// --- 11. mac: CSMA slot accounting conserves airtime -----------------------
//
// Colliding frames share one contention round and legitimately overlap each
// other; ROUNDS must not overlap, and total round airtime cannot exceed the
// elapsed span.
void check_airtime(const ScenarioWorld& world, const RunTrace& trace,
                   const InvariantOptions& opts, std::vector<Violation>& out) {
  struct Round {
    sim::Time start;
    sim::Time end;
  };
  std::map<std::int64_t, Round> rounds;
  for (const plc::SofRecord& s : trace.sofs) {
    const sim::Time start = s.start - opts.inject_airtime_shift;
    auto [it, fresh] = rounds.try_emplace(start.ns(), Round{start, s.end});
    if (!fresh) it->second.end = std::max(it->second.end, s.end);
  }
  sim::Time prev_end{};
  sim::Time busy{};
  bool first = true;
  for (const auto& [_, r] : rounds) {
    if (!first && r.start < prev_end) {
      report(out, "airtime-conservation",
             "round at %.3f us starts before the previous round ends (%.3f us)",
             r.start.us(), prev_end.us());
      return;
    }
    busy += r.end - r.start;
    prev_end = std::max(prev_end, r.end);
    first = false;
  }
  if (rounds.empty()) return;
  const sim::Time span =
      prev_end - sim::Time{rounds.begin()->second.start.ns()};
  if (busy > span) {
    report(out, "airtime-conservation",
           "total frame airtime %.3f us exceeds elapsed span %.3f us",
           busy.us(), span.us());
  }
  (void)world;
}

// --- 12. mac: frame geometry -----------------------------------------------
void check_frame_geometry(const ScenarioWorld& world, const RunTrace& trace,
                          std::vector<Violation>& out) {
  const int slots = world.channel().phy().tone_map_slots;
  std::set<net::StationId> station_ids;
  for (const auto& st : world.scenario().stations) station_ids.insert(st.id);
  for (const plc::SofRecord& s : trace.sofs) {
    if (s.end <= s.start || s.n_pbs < 1 || s.n_symbols < 1 || s.slot < 0 ||
        s.slot >= slots || s.ble_mbps < 0.0) {
      report(out, "frame-geometry",
             "SoF src=%d dst=%d: start %.3f end %.3f n_pbs %d n_symbols %d "
             "slot %d ble %.3f",
             s.src, s.dst, s.start.us(), s.end.us(), s.n_pbs, s.n_symbols,
             s.slot, s.ble_mbps);
      return;
    }
    if (!station_ids.contains(s.src) ||
        (!s.broadcast && !station_ids.contains(s.dst))) {
      report(out, "frame-geometry", "SoF names unknown station %d->%d", s.src,
             s.dst);
      return;
    }
    if (s.broadcast != (s.dst == net::kBroadcast)) {
      report(out, "frame-geometry",
             "SoF broadcast flag %d inconsistent with dst %d", s.broadcast,
             s.dst);
      return;
    }
  }
}

// --- 13/14. hybrid: ReorderBuffer fuzz -------------------------------------

/// Hands scheduled packet arrivals to a ReorderBuffer under one tag. An
/// arrival event captures a pointer to this plus the packet, which fits
/// EventFn's inline buffer.
struct ReorderFeed {
  sim::Simulator& sim;
  hybrid::ReorderBuffer& buffer;
  int tag = -1;  ///< < 0 feeds untagged, like the two-argument on_packet

  void arrive(const net::Packet& p) const { buffer.on_packet(p, sim.now(), tag); }
};

void check_reorder(const Scenario& s, std::vector<Violation>& out) {
  const Scenario::HybridFuzz& fz = s.hybrid;
  sim::Simulator sim;
  std::vector<std::uint32_t> delivered;
  hybrid::ReorderBuffer::Config cfg;
  cfg.hold_timeout = sim::milliseconds(fz.gap_timeout_ms);
  hybrid::ReorderBuffer buffer(
      sim, [&](const net::Packet& p, sim::Time) { delivered.push_back(p.seq); },
      cfg);
  const ReorderFeed feed{sim, buffer};

  sim::Rng rng = sim::Rng{s.world_seed}.fork(0x4e04de4);
  std::set<std::uint32_t> fed_unique;
  std::uint64_t fed_total = 0;
  sim::Time last_arrival{};
  for (int i = 0; i < fz.n_packets; ++i) {
    if (rng.bernoulli(fz.loss_prob)) continue;
    const sim::Time sent = sim::milliseconds(0.8 * i);
    int copies = 1 + (rng.bernoulli(fz.dup_prob) ? 1 : 0);
    for (int c = 0; c < copies; ++c) {
      const sim::Time arrival =
          sent + sim::milliseconds(rng.uniform(0.0, fz.reorder_jitter_ms * (c + 1)));
      net::Packet p;
      p.flow_id = 7;
      p.seq = static_cast<std::uint32_t>(i);
      p.created = sent;
      sim.at(arrival, [&feed, p] { feed.arrive(p); });
      fed_unique.insert(p.seq);
      ++fed_total;
      last_arrival = std::max(last_arrival, arrival);
    }
  }
  // Horizon: worst case every remaining gap times out sequentially.
  sim.run_until(last_arrival +
                (fz.n_packets + 2) * sim::milliseconds(fz.gap_timeout_ms) +
                sim::seconds(1));

  for (std::size_t i = 1; i < delivered.size(); ++i) {
    if (delivered[i] <= delivered[i - 1]) {
      report(out, "reorder-order",
             "delivery %zu: seq %u after seq %u (duplicate or out of order)", i,
             delivered[i], delivered[i - 1]);
      return;
    }
  }
  if (buffer.buffered() != 0) {
    report(out, "reorder-conservation",
           "%zu packets still buffered after full drain", buffer.buffered());
  }
  if (delivered.size() > fed_unique.size()) {
    report(out, "reorder-conservation",
           "delivered %zu distinct packets but only %zu distinct sequences fed",
           delivered.size(), fed_unique.size());
  }
  // Exact conservation: every fed copy lands in exactly one of
  // {delivered, straggler drop, duplicate drop} once the buffer drains.
  if (delivered.size() + buffer.stragglers_dropped() +
          buffer.duplicates_dropped() !=
      fed_total) {
    report(out, "reorder-conservation",
           "delivered %zu + straggler-dropped %llu + duplicate-dropped %llu "
           "!= %llu copies fed",
           delivered.size(),
           static_cast<unsigned long long>(buffer.stragglers_dropped()),
           static_cast<unsigned long long>(buffer.duplicates_dropped()),
           static_cast<unsigned long long>(fed_total));
  }
}

// --- 15. hybrid: scheduler weights conserve offered load -------------------
void check_scheduler_load(const Scenario& s, std::vector<Violation>& out) {
  const Scenario::HybridFuzz& fz = s.hybrid;
  const int n = fz.n_interfaces;
  constexpr int kPicks = 2000;
  hybrid::CapacityScheduler sched(sim::Rng{s.world_seed}.fork(0x5c4ed));
  sched.set_capacities(fz.capacities_mbps);
  std::vector<int> counts(static_cast<std::size_t>(n), 0);
  net::Packet p;
  for (int i = 0; i < kPicks; ++i) {
    const int pick = sched.pick(p);
    if (pick < 0 || pick >= n) {
      report(out, "scheduler-load", "pick %d outside [0,%d)", pick, n);
      return;
    }
    ++counts[static_cast<std::size_t>(pick)];
  }
  double total_cap = 0.0;
  for (double c : fz.capacities_mbps) total_cap += c;
  if (total_cap > 0.0) {
    for (int i = 0; i < n; ++i) {
      const double p_i = fz.capacities_mbps[static_cast<std::size_t>(i)] / total_cap;
      const double expect = kPicks * p_i;
      const double slack = 6.0 * std::sqrt(kPicks * p_i * (1.0 - p_i)) + 10.0;
      if (std::abs(counts[static_cast<std::size_t>(i)] - expect) > slack) {
        report(out, "scheduler-load",
               "interface %d got %d of %d picks, expected %.1f +- %.1f "
               "(capacity share %.3f)",
               i, counts[static_cast<std::size_t>(i)], kPicks, expect, slack, p_i);
      }
      if (p_i == 0.0 && counts[static_cast<std::size_t>(i)] != 0) {
        report(out, "scheduler-load",
               "interface %d has zero capacity but got %d picks", i,
               counts[static_cast<std::size_t>(i)]);
      }
    }
  }
  // All-zero capacities must degrade to exact round-robin, not pin one
  // interface.
  hybrid::CapacityScheduler zero(sim::Rng{s.world_seed}.fork(0x5c4ee));
  zero.set_capacities(std::vector<double>(static_cast<std::size_t>(n), 0.0));
  std::vector<int> rr(static_cast<std::size_t>(n), 0);
  for (int i = 0; i < 3 * n; ++i) ++rr[static_cast<std::size_t>(zero.pick(p))];
  const auto [lo, hi] = std::minmax_element(rr.begin(), rr.end());
  if (*hi - *lo > 1) {
    report(out, "scheduler-load",
           "all-zero capacities: round-robin fallback uneven (min %d max %d)",
           *lo, *hi);
  }
}

// --- 16/17. hybrid: NAN diversity dedup and redundancy accounting ----------
//
// A mini per-packet-duplication session: every report is fed to a tagged
// ReorderBuffer as TWO copies (tags 0 and 1) with independent jitter, like
// the NAN concentrator sees a PLC copy and a WiFi copy race in. Checks:
// the app layer never sees a sequence twice (16), and the redundancy
// accounting conserves — wins by tag sum to deliveries, and every fed copy
// is either delivered, suppressed as a duplicate or dropped as a straggler,
// with duplicate bytes matching the losing copies' bytes exactly (17).
void check_nan_diversity(const Scenario& s, const InvariantOptions& opts,
                         std::vector<Violation>& out) {
  const Scenario::NanFuzz& fz = s.nan;
  sim::Simulator sim;
  std::vector<std::uint32_t> delivered;
  std::uint64_t wins[2] = {0, 0};
  hybrid::ReorderBuffer::Config cfg;
  cfg.hold_timeout = sim::milliseconds(fz.gap_timeout_ms);
  hybrid::ReorderBuffer buffer(
      sim, [&](const net::Packet& p, sim::Time) { delivered.push_back(p.seq); },
      cfg);
  buffer.set_win_listener([&](const net::Packet&, int tag) {
    if (tag >= 0 && tag < 2) ++wins[tag];
  });
  const ReorderFeed feeds[2] = {{sim, buffer, 0}, {sim, buffer, 1}};

  sim::Rng rng = sim::Rng{s.world_seed}.fork(0xD177E);
  std::uint64_t fed_copies = 0;
  std::uint64_t fed_bytes_second_copy = 0;
  sim::Time last_arrival{};
  for (int i = 0; i < fz.n_reports; ++i) {
    const sim::Time sent = sim::milliseconds(1.0 * i);
    const std::size_t bytes =
        static_cast<std::size_t>(rng.uniform_int(150, 900));
    for (int tag = 0; tag < 2; ++tag) {
      const sim::Time arrival =
          sent + sim::milliseconds(rng.uniform(0.0, fz.dup_jitter_ms));
      net::Packet p;
      p.flow_id = 42;
      p.seq = static_cast<std::uint32_t>(i);
      p.size_bytes = bytes;
      p.created = sent;
      sim.at(arrival, [feed = &feeds[tag], p] { feed->arrive(p); });
      ++fed_copies;
      if (tag == 1) fed_bytes_second_copy += bytes;
      last_arrival = std::max(last_arrival, arrival);
    }
  }
  sim.run_until(last_arrival + sim::milliseconds(fz.gap_timeout_ms) *
                                   (fz.n_reports + 2) +
                sim::seconds(1));

  if (opts.inject_dup_leak && !delivered.empty()) {
    // Simulated bug: one copy bypasses the dedup buffer straight to the
    // app layer.
    delivered.push_back(delivered.front());
  }
  std::set<std::uint32_t> unique(delivered.begin(), delivered.end());
  if (unique.size() != delivered.size()) {
    report(out, "diversity-no-dup-delivery",
           "app layer saw %zu deliveries but only %zu distinct sequences "
           "(first-wins suppression leaked a losing copy)",
           delivered.size(), unique.size());
  }

  if (wins[0] + wins[1] != delivered.size() -
                               (opts.inject_dup_leak && !delivered.empty()
                                    ? 1u
                                    : 0u)) {
    report(out, "diversity-accounting",
           "wins %llu (plc) + %llu (wifi) != %zu deliveries",
           static_cast<unsigned long long>(wins[0]),
           static_cast<unsigned long long>(wins[1]), delivered.size());
  }
  const std::uint64_t accounted = wins[0] + wins[1] +
                                  buffer.duplicates_dropped() +
                                  buffer.stragglers_dropped() +
                                  buffer.buffered();
  if (accounted != fed_copies) {
    report(out, "diversity-accounting",
           "wins + suppressed + stragglers + buffered = %llu but %llu "
           "copies were fed",
           static_cast<unsigned long long>(accounted),
           static_cast<unsigned long long>(fed_copies));
  }
  // Duplicate-bytes conservation: with both copies always sent and no
  // losses, suppressed bytes are bounded by the redundant copies' bytes.
  const auto measured = static_cast<std::uint64_t>(
      static_cast<double>(fed_bytes_second_copy) * opts.inject_dup_bytes_skew);
  if (measured != fed_bytes_second_copy) {
    report(out, "diversity-accounting",
           "duplicate-bytes counter %llu != %llu bytes of redundant copies",
           static_cast<unsigned long long>(measured),
           static_cast<unsigned long long>(fed_bytes_second_copy));
  }
}

// --- 18. hybrid: relay paths acyclic and within bounds ---------------------
//
// Seeded random ETX graphs through the RelayPlanner: every planned path
// must be loop-free, start and end at its endpoints, respect max_hops and
// use only links below max_link_etx.
void check_relay_acyclic(const Scenario& s, const InvariantOptions& opts,
                         std::vector<Violation>& out) {
  const Scenario::NanFuzz& fz = s.nan;
  hybrid::RelayPlanner::Config cfg;
  cfg.connect_etx = fz.connect_etx;
  cfg.max_link_etx = fz.max_link_etx;
  cfg.max_hops = fz.max_hops;
  hybrid::RelayPlanner planner(cfg);

  sim::Rng rng = sim::Rng{s.world_seed}.fork(0x4E1A9);
  const int n = fz.relay_nodes;
  for (int a = 0; a < n; ++a) {
    for (int b = 0; b < n; ++b) {
      if (a == b || !rng.bernoulli(fz.relay_edge_prob)) continue;
      planner.set_link(a, b, rng.uniform(1.0, 1.5 * fz.max_link_etx));
    }
  }

  for (int src = 1; src < n; ++src) {
    std::vector<net::StationId> path = planner.plan(src, 0);
    if (path.empty()) continue;  // unreachable within bounds: fine
    if (opts.inject_relay_cycle) path.push_back(path.front());
    if (path.front() != src || path.back() != 0) {
      report(out, "relay-acyclic", "path for %d->0 runs %d..%d", src,
             path.front(), path.back());
      return;
    }
    std::set<net::StationId> seen;
    for (const net::StationId hop : path) {
      if (!seen.insert(hop).second) {
        report(out, "relay-acyclic",
               "path for %d->0 visits station %d twice (forwarding loop)",
               src, hop);
        return;
      }
    }
    if (static_cast<int>(path.size()) - 1 > fz.max_hops) {
      report(out, "relay-acyclic", "path for %d->0 uses %zu hops, max is %d",
             src, path.size() - 1, fz.max_hops);
      return;
    }
    if (planner.path_etx(path) >= hybrid::RelayPlanner::kUnreachable) {
      report(out, "relay-acyclic",
             "path for %d->0 crosses an unusable link (etx above %.2f)", src,
             fz.max_link_etx);
      return;
    }
  }
}

}  // namespace

std::vector<Violation> check_invariants(ScenarioWorld& world, const RunTrace& trace,
                                        const InvariantOptions& opts) {
  std::vector<Violation> out;
  check_attenuation_monotone(world, out);
  check_noise_mains_periodic(world, out);
  check_attenuation_finite(world, out);
  check_carrier_bits(world, out);
  check_ble_eq1(world, opts, out);
  check_pberr_range(world, opts, out);
  check_estimator_capacity(world, out);
  check_robo_map(world, out);
  check_sack_delivery(world, trace, out);
  check_deferral_counter(trace, opts, out);
  check_airtime(world, trace, opts, out);
  check_frame_geometry(world, trace, out);
  return out;
}

std::vector<Violation> check_hybrid_invariants(const Scenario& s,
                                               const InvariantOptions& opts) {
  std::vector<Violation> out;
  check_reorder(s, out);
  check_scheduler_load(s, out);
  check_nan_diversity(s, opts, out);
  check_relay_acyclic(s, opts, out);
  return out;
}

std::vector<std::string> invariant_names() {
  return {
      "attenuation-monotone", "noise-mains-periodic", "attenuation-finite",
      "carrier-bits-bounds",  "ble-eq1",              "pberr-range",
      "estimator-capacity",   "robo-map",             "sack-delivery",
      "deferral-counter",     "airtime-conservation", "frame-geometry",
      "reorder-order",        "reorder-conservation", "scheduler-load",
      "diversity-no-dup-delivery", "diversity-accounting", "relay-acyclic",
  };
}

}  // namespace efd::testkit
