#include "src/testbed/campus.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "src/sim/rng.hpp"

namespace efd::testbed {

namespace {

/// Station-id space: board b owns ids [b*64, b*64+64). PLC stations sit at
/// +0..+stations-1 (the gateway at +0), the WiFi bridge radio at +48 and
/// the building AP at +49.
constexpr int kIdStride = 64;
constexpr int kWifiRadioOff = 48;
constexpr int kWifiApOff = 49;

/// Flows at or above this carry cross-board traffic; the flow id encodes
/// the FINAL destination station, which survives the per-hop address
/// rewrites (PLC -> WiFi -> boundary -> PLC).
constexpr int kRemoteFlowBase = 1 << 24;

/// Mean spacing of per-board traffic ticks (each offers one packet).
constexpr sim::Time kTrafficInterval = sim::milliseconds(4);

[[nodiscard]] int dst_board_of(int remote_flow) {
  return (remote_flow - kRemoteFlowBase) / kIdStride;
}

}  // namespace

/// One distribution board: the shared cell state plus the campus's
/// station count and traffic counters.
struct CampusWorld::BoardWorld : CellWorld::Cell {
  int n_stations = 0;
  std::uint32_t seq = 0;
  std::uint64_t offered_local = 0;
  std::uint64_t offered_remote = 0;
  std::uint64_t delivered = 0;

  /// Hand a frame that crossed into this board to its mains, addressed to
  /// the final station its flow names.
  void to_mains(net::Packet p) {
    p.src = gateway_id();
    p.dst = p.flow_id - kRemoteFlowBase;
    if (!plc->inject_boundary(p)) ++queue_drops;
  }

  [[nodiscard]] int gateway_id() const { return index * kIdStride; }
  [[nodiscard]] int radio_id() const { return index * kIdStride + kWifiRadioOff; }
  [[nodiscard]] int ap_id() const { return index * kIdStride + kWifiApOff; }
};

CampusWorld::CampusWorld(const CampusRunConfig& cfg)
    : CampusWorld(cfg, grid::CampusTopology::generate(cfg.campus)) {}

CampusWorld::CampusWorld(const CampusRunConfig& cfg, grid::CampusTopology topo)
    : CellWorld(cfg,
                {topo.n_boards(), topo.links(), kTrafficInterval, "campus.build",
                 "campus.run"},
                /*bridge_fallback=*/true),
      cfg_(cfg),
      topo_(std::move(topo)) {
  build();
}

std::unique_ptr<CellWorld::Cell> CampusWorld::make_cell(int b) {
  auto bw = std::make_unique<BoardWorld>();
  bw->index = b;
  bw->n_stations =
      std::min(cfg_.campus.stations_per_board, topo_.outlets_on_board(b));
  bw->rng = sim::Rng{cfg_.campus.seed}.fork(
      0x7AFF1C00 + static_cast<std::uint64_t>(b));
  topo_.build_board_grid(b, bw->grid);

  sim::Simulator& sim = engine().cell_sim(b);
  bw->channel =
      std::make_unique<plc::PlcChannel>(bw->grid, plc::PhyParams::hpav());
  bw->plc = std::make_unique<plc::PlcNetwork>(
      sim, *bw->channel,
      sim::Rng{cfg_.campus.seed}.fork(0x9E7B00 + static_cast<std::uint64_t>(b)));

  BoardWorld* w = bw.get();
  for (int k = 0; k < bw->n_stations; ++k) {
    const int id = b * kIdStride + k;
    const int outlet = topo_.station_outlet(b, k);
    bw->channel->attach_station(id, outlet);
    bw->plc->add_station(id, outlet);
    bw->plc->station(id).mac().set_rx_handler(
        [this, w, id](const net::Packet& p, sim::Time when) {
          if (p.flow_id >= kRemoteFlowBase && dst_board_of(p.flow_id) != w->index) {
            // Transit traffic at the gateway: hand it off-board.
            egress(*w, p);
            return;
          }
          ++w->delivered;
          w->fold_delivery(id, p, when);
        });
  }
  bw->plc->set_cco(bw->gateway_id());
  bw->plc->set_boundary_gateway(bw->gateway_id());

  const std::vector<Crossing>& xs = crossings(b);
  const bool bridge_endpoint =
      std::any_of(xs.begin(), xs.end(), [](const Crossing& x) {
        return x.kind == grid::BoundaryKind::kWifiBridge;
      });
  if (bridge_endpoint) {
    bw->wifi = std::make_unique<wifi::WifiNetwork>(
        sim, sim::Rng{cfg_.campus.seed}.fork(
                 0x31F1000 + static_cast<std::uint64_t>(b)));
    bw->wifi->add_station(bw->radio_id(), 0.0, 0.0);
    bw->wifi->add_station(bw->ap_id(), 18.0, 4.0);
    bw->wifi->set_boundary_gateway(bw->radio_id());
    // Roof radio: every frame it receives is egress-bound for a
    // neighboring building.
    bw->wifi->station(bw->radio_id())
        .set_rx_handler([this, w](const net::Packet& p, sim::Time) {
          post_crossing(*w, p, dst_board_of(p.flow_id));
        });
    // Building AP: every frame it receives came over the bridge and
    // continues onto the board's mains.
    bw->wifi->station(bw->ap_id())
        .set_rx_handler([w](const net::Packet& p, sim::Time) { w->to_mains(p); });
  }
  return bw;
}

void CampusWorld::arrive(Cell& c, net::Packet& p, std::uint32_t kind) {
  auto& bw = static_cast<BoardWorld&>(c);
  if (kind == kKindBridge && bw.wifi) {
    p.src = bw.radio_id();
    p.dst = bw.ap_id();
    if (!bw.wifi->inject_boundary(p)) ++bw.queue_drops;
  } else {
    bw.to_mains(p);
  }
}

void CampusWorld::tick(Cell& c) {
  auto& bw = static_cast<BoardWorld&>(c);
  if (bw.n_stations < 2) return;
  // A blacked-out board offers nothing: its stations are unpowered. The
  // tick chain keeps running so traffic resumes the instant power returns.
  if (bw.dead) return;

  const int src_k =
      static_cast<int>(bw.rng.uniform_int(0, bw.n_stations - 1));
  const int src_id = bw.index * kIdStride + src_k;

  net::Packet p;
  p.seq = bw.seq++;
  p.size_bytes = static_cast<std::size_t>(bw.rng.uniform_int(200, 1500));
  p.created = engine().cell_sim(bw.index).now();
  p.priority = 1;
  p.src = src_id;

  const std::vector<Crossing>& xs = crossings(bw.index);
  const bool remote = !xs.empty() && bw.rng.bernoulli(cfg_.p_remote);
  if (remote) {
    const Crossing& x = xs[static_cast<std::size_t>(
        bw.rng.uniform_int(0, static_cast<std::int64_t>(xs.size()) - 1))];
    const int dst_stations = std::min(
        cfg_.campus.stations_per_board, topo_.outlets_on_board(x.neighbor));
    if (dst_stations >= 2) {
      // Never address the destination gateway itself: the final PLC hop
      // would be a station transmitting to itself.
      const int dst_k =
          1 + static_cast<int>(bw.rng.uniform_int(0, dst_stations - 2));
      p.flow_id = kRemoteFlowBase + x.neighbor * kIdStride + dst_k;
      p.dst = bw.gateway_id();
      ++bw.offered_remote;
      if (src_k == 0) {
        // The gateway sourcing off-board traffic skips its own medium.
        egress(bw, p);
      } else if (!bw.plc->station(p.src).mac().enqueue(p)) {
        ++bw.queue_drops;
      }
      return;
    }
  }

  int dst_k = static_cast<int>(bw.rng.uniform_int(0, bw.n_stations - 2));
  if (dst_k >= src_k) ++dst_k;
  p.flow_id = src_id * kIdStride + dst_k;
  p.dst = bw.index * kIdStride + dst_k;
  ++bw.offered_local;
  if (!bw.plc->station(p.src).mac().enqueue(p)) ++bw.queue_drops;
}

void CampusWorld::egress(BoardWorld& bw, const net::Packet& p) {
  if (!CellWorld::egress(bw, p, dst_board_of(p.flow_id),
                         /*bridge_hop=*/bw.wifi != nullptr)) {
    return;
  }
  // Local AP -> roof radio hop first; the radio's rx handler posts the
  // crossing when the frame actually clears the WiFi medium.
  net::Packet q = p;
  q.src = bw.ap_id();
  q.dst = bw.radio_id();
  bw.wifi->record_boundary_egress();
  if (!bw.wifi->station(q.src).enqueue(q)) ++bw.queue_drops;
}

void CampusWorld::fold_counters(const Cell& c, sim::Fnv1a64& f) const {
  const auto& bw = static_cast<const BoardWorld&>(c);
  f.mix(static_cast<std::uint64_t>(bw.seq));
  f.mix(bw.offered_local);
  f.mix(bw.offered_remote);
  f.mix(bw.delivered);
  f.mix(bw.queue_drops);
  f.mix(bw.plc->boundary_ingress());
  f.mix(bw.plc->boundary_egress());
  if (bw.wifi) {
    f.mix(bw.wifi->boundary_ingress());
    f.mix(bw.wifi->boundary_egress());
  }
}

CampusResult CampusWorld::result() const {
  CampusResult r;
  fill_result(r, r.board_digests);
  r.n_boards = topo_.n_boards();
  for (const auto& c : cells()) {
    const auto& bw = static_cast<const BoardWorld&>(*c);
    r.packets_local += bw.offered_local;
    r.packets_remote += bw.offered_remote;
    r.delivered += bw.delivered;
  }
  return r;
}

CampusResult run_campus(const CampusRunConfig& cfg) {
  CampusWorld world(cfg);
  world.run();
  return world.result();
}

}  // namespace efd::testbed
