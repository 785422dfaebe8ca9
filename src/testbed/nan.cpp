#include "src/testbed/nan.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>

#include "src/core/etx.hpp"
#include "src/hybrid/reorder.hpp"
#include "src/hybrid/scheduler.hpp"
#include "src/obs/obs.hpp"
#include "src/sim/rng.hpp"

namespace efd::testbed {

namespace {

/// Station-id space: transformer t owns ids [t*64, t*64+64). PLC stations
/// sit at +0..+stations-1 (the concentrator at +0); each station's WiFi
/// radio mirrors it at +32..+32+stations-1 (the concentrator's at +32).
constexpr int kIdStride = 64;
constexpr int kWifiOff = 32;

/// Flows at or above this carry cross-transformer reports. The flow id
/// packs BOTH endpoints — kRemoteFlowBase + dst_station_id*64 + origin_k —
/// because the origin meter keys the dedup buffer at the local concentrator
/// while the destination station survives the boundary crossing.
constexpr int kRemoteFlowBase = 1 << 24;

/// First-wins dedup / resequencing gap timeout at the concentrator.
constexpr sim::Time kGapTimeout = sim::milliseconds(30);

[[nodiscard]] int origin_of(int flow_id) {
  return flow_id >= kRemoteFlowBase
             ? (flow_id - kRemoteFlowBase) % kIdStride
             : (flow_id / kIdStride) % kIdStride;
}

[[nodiscard]] int remote_dst_id(int flow_id) {
  return (flow_id - kRemoteFlowBase) / kIdStride;
}

/// Planning-time PB error estimate from the channel's own SNR physics:
/// deterministic at build (no estimator warm-up), monotone in attenuation.
/// Links above ~16 dB mean SNR decode cleanly; the long daisy-chained LV
/// drops push far meters well below that.
[[nodiscard]] double planning_pberr(double mean_snr_db) {
  return std::clamp((16.0 - mean_snr_db) / 22.0, 0.0, 0.98);
}

}  // namespace

const char* to_string(DiversityMode mode) {
  switch (mode) {
    case DiversityMode::kPlcOnly: return "plc_only";
    case DiversityMode::kWifiOnly: return "wifi_only";
    case DiversityMode::kLoadBalance: return "load_balance";
    case DiversityMode::kDiversity: return "diversity";
  }
  return "?";
}

/// One transformer cell: the shared cell state plus the NAN's dedup,
/// relay and scheduler state and its report counters.
struct NanWorld::TransformerWorld : CellWorld::Cell {
  int n_stations = 0;

  /// Load-balance mode only: the §7.4 capacity-proportional splitter.
  std::unique_ptr<hybrid::CapacityScheduler> scheduler;

  /// Per-meter first-wins dedup / resequencing at the concentrator,
  /// indexed by station k (slot 0, the concentrator itself, stays null).
  std::vector<std::unique_ptr<hybrid::ReorderBuffer>> dedup;
  std::vector<std::uint32_t> meter_seq;

  /// Relay forwarding table: (origin station k, current station id) ->
  /// next station id on the planned path to the concentrator.
  std::map<std::pair<int, int>, int> next_hop;
  int relay_meters = 0;
  int relay_hops_max = 0;

  std::uint64_t offered = 0;
  std::uint64_t offered_remote = 0;
  std::uint64_t delivered = 0;
  std::uint64_t delivered_remote = 0;
  std::uint64_t relay_forwards = 0;
  std::uint64_t dup_copies = 0;
  std::uint64_t dup_bytes = 0;
  std::uint64_t wins_plc = 0;
  std::uint64_t wins_wifi = 0;

  /// Hand a report copy that reached the concentrator over `medium` (0 =
  /// PLC, 1 = WiFi) to its origin meter's dedup buffer.
  void to_dedup(const net::Packet& p, sim::Time when, int medium) {
    const int k_origin = origin_of(p.flow_id);
    if (k_origin >= 1 && k_origin < n_stations) {
      dedup[static_cast<std::size_t>(k_origin)]->on_packet(p, when, medium);
    }
  }

  /// Losing and late copies the dedup buffers dropped.
  [[nodiscard]] std::pair<std::uint64_t, std::uint64_t> dedup_drops() const {
    std::pair<std::uint64_t, std::uint64_t> drops{0, 0};
    for (const auto& rb : dedup) {
      if (!rb) continue;
      drops.first += rb->duplicates_dropped();
      drops.second += rb->stragglers_dropped();
    }
    return drops;
  }

  [[nodiscard]] int conc_id() const { return index * kIdStride; }
  [[nodiscard]] int wifi_id(int k) const { return index * kIdStride + kWifiOff + k; }
};

NanWorld::NanWorld(const NanRunConfig& cfg)
    : NanWorld(cfg, grid::NanTopology::generate(cfg.nan)) {}

NanWorld::NanWorld(const NanRunConfig& cfg, grid::NanTopology topo)
    : CellWorld(cfg,
                {topo.n_transformers(), topo.links(), cfg.report_interval, "nan.build",
                 "nan.run"},
                /*bridge_fallback=*/false),
      cfg_(cfg),
      topo_(std::move(topo)) {
  build();
}

std::unique_ptr<CellWorld::Cell> NanWorld::make_cell(int t) {
  auto tw = std::make_unique<TransformerWorld>();
  tw->index = t;
  tw->n_stations = topo_.stations_on_transformer(t);
  tw->rng = sim::Rng{cfg_.nan.seed}.fork(
      0x5AFE7000 + static_cast<std::uint64_t>(t));
  topo_.build_transformer_grid(t, tw->grid);

  sim::Simulator& sim = engine().cell_sim(t);
  tw->channel =
      std::make_unique<plc::PlcChannel>(tw->grid, plc::PhyParams::hpav());
  tw->plc = std::make_unique<plc::PlcNetwork>(
      sim, *tw->channel,
      sim::Rng{cfg_.nan.seed}.fork(0xA17E00 + static_cast<std::uint64_t>(t)));
  tw->wifi = std::make_unique<wifi::WifiNetwork>(
      sim, sim::Rng{cfg_.nan.seed}.fork(
               0x31F1000 + static_cast<std::uint64_t>(t)));

  TransformerWorld* w = tw.get();

  // Per-meter dedup buffers at the concentrator. The deliver callback is
  // the app layer: a local report counts here; a remote-bound report
  // leaves for the crossing only AFTER dedup, so the boundary stream
  // carries exactly one copy per sequence no matter how many media (or
  // relay hops) raced to the concentrator.
  tw->meter_seq.assign(static_cast<std::size_t>(tw->n_stations), 0);
  tw->dedup.resize(static_cast<std::size_t>(tw->n_stations));
  for (int k = 1; k < tw->n_stations; ++k) {
    hybrid::ReorderBuffer::Config rc;
    rc.hold_timeout = kGapTimeout;
    auto rb = std::make_unique<hybrid::ReorderBuffer>(
        sim,
        [this, w](const net::Packet& p, sim::Time when) {
          if (p.flow_id >= kRemoteFlowBase) {
            egress(*w, p, remote_dst_id(p.flow_id) / kIdStride);
            return;
          }
          ++w->delivered;
          w->fold_delivery(w->conc_id(), p, when);
        },
        rc);
    rb->set_win_listener([w](const net::Packet&, int tag) {
      if (tag == 0) {
        ++w->wins_plc;
      } else if (tag == 1) {
        ++w->wins_wifi;
        EFD_COUNTER_INC("nan.diversity.wifi_wins");
      }
    });
    tw->dedup[static_cast<std::size_t>(k)] = std::move(rb);
  }

  for (int k = 0; k < tw->n_stations; ++k) {
    const int id = t * kIdStride + k;
    const int outlet = topo_.station_outlet(t, k);
    tw->channel->attach_station(id, outlet);
    tw->plc->add_station(id, outlet);
    if (k == 0) {
      // Concentrator: every PLC frame it receives is a report from one
      // of its own meters (direct or relayed) — feed the origin meter's
      // dedup buffer tagged "PLC copy".
      tw->plc->station(id).mac().set_rx_handler(
          [w](const net::Packet& p, sim::Time when) { w->to_dedup(p, when, 0); });
    } else {
      // Meter: either the final destination of a cross-transformer
      // report, or an intermediate relay hop on another meter's path to
      // the concentrator.
      tw->plc->station(id).mac().set_rx_handler(
          [w, id](const net::Packet& p, sim::Time when) {
            if (p.flow_id >= kRemoteFlowBase &&
                remote_dst_id(p.flow_id) == id) {
              ++w->delivered_remote;
              w->fold_delivery(id, p, when);
              return;
            }
            const auto it =
                w->next_hop.find({origin_of(p.flow_id), id});
            if (it == w->next_hop.end()) return;  // misdirected; drop
            net::Packet q = p;
            q.src = id;
            q.dst = it->second;
            ++w->relay_forwards;
            EFD_COUNTER_INC("nan.relay.forwards");
            if (!w->plc->station(id).mac().enqueue(q)) ++w->queue_drops;
          });
    }

    // The WiFi mirror: meters uplink straight to the concentrator's
    // radio (no relaying — the diversity partner is single-hop).
    const double x = static_cast<double>(outlet) * 6.0;
    tw->wifi->add_station(tw->wifi_id(k), x, 0.0);
    if (k == 0) {
      tw->wifi->station(tw->wifi_id(0))
          .set_rx_handler([w](const net::Packet& p, sim::Time when) {
            w->to_dedup(p, when, 1);
          });
    }
  }
  tw->plc->set_cco(tw->conc_id());
  tw->plc->set_boundary_gateway(tw->conc_id());

  if (cfg_.mode == DiversityMode::kLoadBalance) {
    tw->scheduler = std::make_unique<hybrid::CapacityScheduler>(
        sim::Rng{cfg_.nan.seed}.fork(
            0x5CED00 + static_cast<std::uint64_t>(t)));
    // Build-time capacity estimates from the same deterministic physics
    // the relay planner uses: mean PLC SNR as a rate proxy, and the
    // radio's MCS pick at t=0.
    double plc_cap = 0.0;
    double wifi_cap = 0.0;
    for (int k = 1; k < tw->n_stations; ++k) {
      plc_cap += std::clamp(
          tw->channel->mean_snr_db(t * kIdStride + k, tw->conc_id(), 0,
                                   sim::Time{}),
          0.0, 40.0);
      wifi_cap += tw->wifi->mcs_capacity_mbps(tw->wifi_id(k),
                                              tw->wifi_id(0), sim::Time{});
    }
    tw->scheduler->set_capacities({plc_cap, wifi_cap});
  }

  if (cfg_.relay_enabled && tw->n_stations >= 3) plan_relays(*tw);
  return tw;
}

void NanWorld::arrive(Cell& c, net::Packet& p, std::uint32_t /*kind*/) {
  // Whatever medium carried the crossing, the concentrator re-frames the
  // report onto its own LV side for the final hop.
  auto& tw = static_cast<TransformerWorld&>(c);
  p.src = tw.conc_id();
  p.dst = remote_dst_id(p.flow_id);
  if (!tw.plc->inject_boundary(p)) ++tw.queue_drops;
}

void NanWorld::plan_relays(TransformerWorld& tw) {
  // ETX costs from the channel's deterministic SNR physics (ABB-style NAN
  // relaying): the planner itself is a pure graph layer, so the world is
  // where PHY estimates become link costs.
  hybrid::RelayPlanner planner(cfg_.relay);
  for (int a = 0; a < tw.n_stations; ++a) {
    for (int b = 0; b < tw.n_stations; ++b) {
      if (a == b) continue;
      const int ida = tw.index * kIdStride + a;
      const int idb = tw.index * kIdStride + b;
      const double snr =
          tw.channel->mean_snr_db(ida, idb, 0, sim::Time{});
      planner.set_link(ida, idb,
                       core::predicted_u_etx(planning_pberr(snr), 3));
    }
  }
  for (int k = 1; k < tw.n_stations; ++k) {
    const int meter = tw.index * kIdStride + k;
    if (!planner.needs_relay(meter, tw.conc_id())) continue;
    const std::vector<net::StationId> path =
        planner.plan(meter, tw.conc_id());
    if (path.size() <= 2) continue;  // unreachable, or direct is cheapest
    ++tw.relay_meters;
    tw.relay_hops_max = std::max(tw.relay_hops_max,
                                 static_cast<int>(path.size()) - 1);
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      tw.next_hop[{k, path[i]}] = path[i + 1];
    }
  }
}

void NanWorld::tick(Cell& c) {
  auto& tw = static_cast<TransformerWorld&>(c);
  if (tw.n_stations < 2) return;
  // A blacked-out transformer offers nothing; the tick chain keeps
  // running so reporting resumes the instant power returns.
  if (tw.dead) return;

  // The draw sequence below is identical for every DiversityMode, so runs
  // that differ only in mode offer the exact same report pattern — that is
  // what makes "diversity never delivers less than either medium alone"
  // testable as a deterministic assertion.
  const int src_k =
      1 + static_cast<int>(tw.rng.uniform_int(0, tw.n_stations - 2));
  const int src_id = tw.index * kIdStride + src_k;

  net::Packet p;
  p.seq = tw.meter_seq[static_cast<std::size_t>(src_k)]++;
  p.size_bytes = static_cast<std::size_t>(tw.rng.uniform_int(150, 900));
  p.created = engine().cell_sim(tw.index).now();
  p.priority = 1;
  p.flow_id = src_id * kIdStride;

  const std::vector<Crossing>& xs = crossings(tw.index);
  const bool remote = !xs.empty() && tw.rng.bernoulli(cfg_.p_remote);
  if (remote) {
    const Crossing& x = xs[static_cast<std::size_t>(tw.rng.uniform_int(
        0, static_cast<std::int64_t>(xs.size()) - 1))];
    const int dst_stations = topo_.stations_on_transformer(x.neighbor);
    if (dst_stations >= 2) {
      // Never address the destination concentrator itself: the final PLC
      // hop would be a station transmitting to itself.
      const int dst_k =
          1 + static_cast<int>(tw.rng.uniform_int(0, dst_stations - 2));
      p.flow_id = kRemoteFlowBase +
                  (x.neighbor * kIdStride + dst_k) * kIdStride + src_k;
      ++tw.offered_remote;
    }
  }
  ++tw.offered;

  switch (cfg_.mode) {
    case DiversityMode::kPlcOnly:
      send_plc(tw, src_k, p);
      break;
    case DiversityMode::kWifiOnly:
      send_wifi(tw, src_k, p);
      break;
    case DiversityMode::kLoadBalance:
      if (tw.scheduler->pick(p) == 0) {
        send_plc(tw, src_k, p);
      } else {
        send_wifi(tw, src_k, p);
      }
      break;
    case DiversityMode::kDiversity: {
      const bool on_plc = send_plc(tw, src_k, p);
      const bool on_wifi = send_wifi(tw, src_k, p);
      if (on_plc && on_wifi) {
        // The second accepted copy is the redundancy spend.
        ++tw.dup_copies;
        tw.dup_bytes += p.size_bytes;
        EFD_COUNTER_INC("nan.diversity.dup_copies");
        EFD_COUNTER_ADD("nan.diversity.dup_bytes",
                        static_cast<std::int64_t>(p.size_bytes));
      }
      break;
    }
  }
}

bool NanWorld::send_plc(TransformerWorld& tw, int meter_k,
                        const net::Packet& p) {
  net::Packet q = p;
  q.src = tw.index * kIdStride + meter_k;
  const auto it = tw.next_hop.find({meter_k, q.src});
  q.dst = it != tw.next_hop.end() ? it->second : tw.conc_id();
  if (!tw.plc->station(q.src).mac().enqueue(q)) {
    ++tw.queue_drops;
    return false;
  }
  return true;
}

bool NanWorld::send_wifi(TransformerWorld& tw, int meter_k,
                         const net::Packet& p) {
  net::Packet q = p;
  q.src = tw.wifi_id(meter_k);
  q.dst = tw.wifi_id(0);
  if (!tw.wifi->station(q.src).enqueue(q)) {
    ++tw.queue_drops;
    return false;
  }
  return true;
}

void NanWorld::fold_counters(const Cell& c, sim::Fnv1a64& f) const {
  const auto& tw = static_cast<const TransformerWorld&>(c);
  const auto [suppressed, stragglers] = tw.dedup_drops();
  for (const std::uint32_t s : tw.meter_seq) {
    f.mix(static_cast<std::uint64_t>(s));
  }
  f.mix(tw.offered);
  f.mix(tw.offered_remote);
  f.mix(tw.delivered);
  f.mix(tw.delivered_remote);
  f.mix(tw.queue_drops);
  f.mix(tw.relay_forwards);
  f.mix(tw.dup_copies);
  f.mix(tw.dup_bytes);
  f.mix(tw.wins_plc);
  f.mix(tw.wins_wifi);
  f.mix(suppressed);
  f.mix(stragglers);
  f.mix(tw.plc->boundary_ingress());
  f.mix(tw.plc->boundary_egress());
}

NanResult NanWorld::result() const {
  NanResult r;
  fill_result(r, r.transformer_digests);
  r.n_transformers = topo_.n_transformers();
  for (const auto& c : cells()) {
    const auto& tw = static_cast<const TransformerWorld&>(*c);
    const auto [suppressed, stragglers] = tw.dedup_drops();
    r.offered += tw.offered;
    r.offered_remote += tw.offered_remote;
    r.delivered += tw.delivered;
    r.delivered_remote += tw.delivered_remote;
    r.queue_drops += tw.queue_drops;
    r.dup_copies += tw.dup_copies;
    r.dup_bytes += tw.dup_bytes;
    r.wins_plc += tw.wins_plc;
    r.wins_wifi += tw.wins_wifi;
    r.suppressed += suppressed;
    r.stragglers += stragglers;
    r.relay_meters += static_cast<std::uint64_t>(tw.relay_meters);
    r.relay_forwards += tw.relay_forwards;
    r.relay_hops_max = std::max(r.relay_hops_max, tw.relay_hops_max);
  }
  return r;
}

NanResult run_nan(const NanRunConfig& cfg) {
  NanWorld world(cfg);
  world.run();
  return world.result();
}

}  // namespace efd::testbed
